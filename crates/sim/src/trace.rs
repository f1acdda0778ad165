//! Tracing and metrics: per-rank ring buffers of typed events stamped
//! with the emitting rank's clock, gauges, and the two exporters (Chrome
//! `trace_event` JSON and flat JSONL). Each sample is recorded once, in
//! the event that carries it; every human report of a trace — its event
//! census and duration digests included — is `scioto-analyze`'s. Events
//! are kept as emitted, except owner-side `LocalAccess` records: each
//! rank's ring merges those between two flushing events into one
//! whole-word summary per range ([`coalesce`]; format v4).
//!
//! Determinism contract: every event is stamped with the emitting rank's
//! virtual clock ([`crate::Ctx::now`] in virtual-time mode), each per-rank
//! ring is written only by its own rank thread, and the exporters format
//! timestamps as exact integers (nanoseconds) or fixed-decimal
//! microseconds — so two virtual-time runs with the same
//! [`crate::MachineConfig`] produce byte-identical trace files. In
//! [`crate::ExecMode::Concurrent`] mode events carry **real wall-clock
//! nanoseconds** from the machine's monotonic clock
//! (`scioto_det::MonoClock`); such traces are marked
//! [`Trace::wall_clock`], stamps are not reproducible across runs, and
//! the sync-pairing payload (lock generations, message seqs, barrier
//! epochs) remains exact — so race-checking and blame decomposition work
//! unchanged, while byte-identity claims apply to virtual time only.
//!
//! Hot-path cost is gated by [`TraceSink`]: the `Disabled` variant reduces
//! every emission to one branch, and event construction happens inside a
//! closure that is never called when tracing is off. Enabled emission is
//! lock-free: each rank's ring is a single-writer cell touched only by
//! that rank's thread, so concurrent-mode tracing never adds a lock to
//! the measured path (the overhead gate in `concurrent_obs` asserts it
//! stays non-perturbing).

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::ops::Range;

use scioto_det::par::{in_parts, parts_for};
use scioto_det::runs::word_range;

/// Tracing configuration carried by [`crate::MachineConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When false the machine runs with
    /// [`TraceSink::Disabled`] and pays one branch per emission site.
    pub enabled: bool,
    /// Capacity of each per-rank event ring. When a ring fills, the oldest
    /// events are overwritten and counted in [`Trace::dropped`].
    pub ring_capacity: usize,
}

impl TraceConfig {
    /// Tracing off (the default).
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            ring_capacity: 0,
        }
    }

    /// Tracing on with the default ring capacity (65536 events per rank,
    /// ~1.5 MiB per rank).
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ring_capacity: 1 << 16,
        }
    }

    /// Replace the per-rank ring capacity.
    pub fn with_capacity(mut self, cap: usize) -> Self {
        self.ring_capacity = cap;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// Direction of a termination-detection wave event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaveDir {
    /// Wave token propagating down the spanning tree.
    Down,
    /// Vote propagating up (the `black` flag carries the token colour).
    Up,
    /// Termination announced or observed.
    Term,
}

impl WaveDir {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            WaveDir::Down => "down",
            WaveDir::Up => "up",
            WaveDir::Term => "term",
        }
    }
}

/// Kind of a one-sided (ARMCI-level) remote operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteOpKind {
    /// Contiguous put.
    Put,
    /// Contiguous get.
    Get,
    /// Atomic accumulate.
    Acc,
    /// Atomic read-modify-write.
    Rmw,
}

impl RemoteOpKind {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            RemoteOpKind::Put => "put",
            RemoteOpKind::Get => "get",
            RemoteOpKind::Acc => "acc",
            RemoteOpKind::Rmw => "rmw",
        }
    }

    /// Does this operation write the target memory?
    pub fn is_write(self) -> bool {
        !matches!(self, RemoteOpKind::Get)
    }

    /// Is this operation atomic by nature (acc/rmw execute under the
    /// target word's hot-word lock)?
    pub fn is_atomic(self) -> bool {
        matches!(self, RemoteOpKind::Acc | RemoteOpKind::Rmw)
    }
}

/// Append `"k0":v0,"k1":v1,...` to a [`Text`]: the keys become literal
/// fragments at compile time, the values append through [`Member`].
macro_rules! members {
    ($out:expr, $k0:literal: $v0:expr $(, $k:literal: $v:expr)*) => {{
        $out.lit(concat!("\"", $k0, "\":"));
        $v0.append($out);
        $(
            $out.lit(concat!(",\"", $k, "\":"));
            $v.append($out);
        )*
    }};
}

/// One typed trace event. Fixed-size (`Copy`) so ring storage is flat.
///
/// Duration-carrying events (`dur_ns`) are stamped at operation
/// *completion*: the operation's virtual-time span is `[t_ns - dur_ns,
/// t_ns]`. The analyzer (`scioto-analyze`) reconstructs per-rank
/// timelines from these spans; they nest like the call stack that
/// emitted them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A task callback started executing (`callback` is the handler index).
    TaskExecBegin {
        /// Registered callback index of the task.
        callback: u32,
        /// Rank that created (spawned) the task — `creator != rank` means
        /// the task migrated here via a steal or a remote add.
        creator: u32,
    },
    /// The matching end of a [`TraceEvent::TaskExecBegin`].
    TaskExecEnd {
        /// Registered callback index of the task.
        callback: u32,
    },
    /// A steal attempt against `victim` that obtained `got` tasks
    /// (`got == 0` is a failed attempt). Stamped at completion;
    /// `dur_ns` is the full round trip (victim lock, index read, task
    /// transfer, unlock — including any lock wait, which is also
    /// reported separately as a nested [`TraceEvent::LockWait`]).
    StealAttempt {
        /// Rank the steal targeted.
        victim: u32,
        /// Tasks actually stolen.
        got: u32,
        /// Virtual-time round trip of the whole attempt.
        dur_ns: u64,
    },
    /// A mutex acquire completed after `dur_ns` of waiting plus the
    /// acquire round trip. Stamped at completion.
    LockWait {
        /// Rank owning the acquired mutex.
        target: u32,
        /// Wait plus acquire cost, virtual ns.
        dur_ns: u64,
    },
    /// A machine-wide barrier episode completed on this rank. Stamped at
    /// the collective release; `dur_ns` spans this rank's arrival to the
    /// release (always emitted, even when zero, so the k-th BarrierWait
    /// on every rank is the same episode).
    BarrierWait {
        /// Release minus this rank's arrival, virtual ns.
        dur_ns: u64,
        /// Barrier generation: the `epoch`-th barrier episode of the run.
        /// All ranks participating in one episode carry the same epoch, so
        /// a happens-before consumer can join their clocks exactly.
        epoch: u64,
    },
    /// One termination-detection poll (`WaveDetector::progress`-level)
    /// completed, spanning `dur_ns`. Only emitted when `dur_ns > 0`.
    TdProgress {
        /// Virtual time consumed by the poll.
        dur_ns: u64,
    },
    /// The split queue released `moved` tasks from the private to the
    /// shared portion.
    SplitRelease {
        /// Tasks moved across the split.
        moved: u32,
    },
    /// The split queue reclaimed `moved` tasks from the shared portion.
    SplitReclaim {
        /// Tasks moved across the split.
        moved: u32,
    },
    /// A termination-detection wave event (see [`WaveDir`]).
    TdWave {
        /// Wave number.
        wave: u32,
        /// Down the tree, vote up, or termination.
        dir: WaveDir,
        /// Token colour for up-votes (black = work moved this wave).
        black: bool,
    },
    /// Queue occupancy sample: private (`local`) and stealable (`shared`)
    /// task counts.
    QueueDepth {
        /// Tasks in the owner-private portion.
        local: u32,
        /// Tasks in the shared (stealable) portion.
        shared: u32,
    },
    /// The rank parked waiting on a condition.
    Block,
    /// The rank issued a wake for `target`.
    Unblock {
        /// Rank being woken.
        target: u32,
    },
    /// A two-sided message was sent to `dst`.
    MsgSend {
        /// Destination rank.
        dst: u32,
        /// Payload bytes.
        bytes: u32,
        /// Per-destination delivery sequence number: the matching
        /// [`TraceEvent::MsgRecv`] on `dst` carries the same `seq`, giving
        /// the race engine an exact send→recv synchronization edge.
        seq: u64,
    },
    /// A two-sided message was received (dequeued) from `src`. Matches
    /// the [`TraceEvent::MsgSend`] with `dst == rank` and the same `seq`.
    MsgRecv {
        /// Source rank.
        src: u32,
        /// Delivery sequence number assigned at send time.
        seq: u64,
    },
    /// A one-sided remote operation against global memory at
    /// `(target, seg, offset)`.
    RemoteOp {
        /// Operation kind.
        kind: RemoteOpKind,
        /// Target rank.
        target: u32,
        /// Global-memory segment id (`Gmem::id`).
        seg: u32,
        /// Byte offset of the access within the target's segment slice.
        offset: u64,
        /// Bytes transferred.
        bytes: u32,
        /// Protocol-atomic put/get: a single-word access the runtime
        /// declares safe against concurrent plain accesses (lock-free
        /// index publishes of the split-queue protocol). Always true for
        /// acc/rmw kinds.
        atomic: bool,
    },
    /// An owner-side (local, non-ARMCI) access to global memory: the
    /// split-queue owner touching its own queue through its word view
    /// (`Local::record` / `Local::record_set` in `scioto-armci`). Target
    /// is the emitting rank itself. The recorder keeps none of these as
    /// offered: each one it keeps is a *window summary* — whole words
    /// `[offset, offset + bytes)` of one `(seg, write, atomic)` class that
    /// the rank touched since its previous flushing event (any kind but
    /// this one, `TaskExecBegin`, `TaskExecEnd` and `QueueDepth`); see
    /// [`coalesce`].
    LocalAccess {
        /// Global-memory segment id (`Gmem::id`).
        seg: u32,
        /// Byte offset of the access within this rank's segment slice
        /// (a multiple of 8 in a summary).
        offset: u64,
        /// Bytes touched (a multiple of 8 in a summary).
        bytes: u32,
        /// Write (true) or read (false).
        write: bool,
        /// Single-word access the protocol declares atomic.
        atomic: bool,
    },
    /// An ARMCI mutex was acquired (`seq`-th ownership of that mutex).
    /// Together with [`TraceEvent::LockRel`] this yields release→acquire
    /// synchronization edges: acquire `seq` is ordered after release
    /// `seq - 1` of the same `(target, set, idx)` mutex.
    LockAcq {
        /// Rank hosting the mutex.
        target: u32,
        /// Mutex-set id (creation order within the ARMCI world).
        set: u32,
        /// Mutex index within the set.
        idx: u32,
        /// Ownership generation of this mutex instance.
        seq: u64,
    },
    /// The matching release of a [`TraceEvent::LockAcq`] (same `seq`).
    LockRel {
        /// Rank hosting the mutex.
        target: u32,
        /// Mutex-set id (creation order within the ARMCI world).
        set: u32,
        /// Mutex index within the set.
        idx: u32,
        /// Ownership generation being ended.
        seq: u64,
    },
}

impl TraceEvent {
    /// Every event name, in name order; [`TraceEvent::kind`] indexes it.
    pub const NAMES: [&'static str; 18] = [
        "BarrierWait", "Block", "LocalAccess", "LockAcq", "LockRel", "LockWait", "MsgRecv",
        "MsgSend", "QueueDepth", "RemoteOp", "SplitReclaim", "SplitRelease", "StealAttempt",
        "TaskExecBegin", "TaskExecEnd", "TdProgress", "TdWave", "Unblock",
    ];

    /// The event's index in [`TraceEvent::NAMES`]: a per-kind table is a
    /// fixed-size array, in name order.
    pub fn kind(&self) -> usize {
        match self {
            TraceEvent::BarrierWait { .. } => 0,
            TraceEvent::Block => 1,
            TraceEvent::LocalAccess { .. } => 2,
            TraceEvent::LockAcq { .. } => 3,
            TraceEvent::LockRel { .. } => 4,
            TraceEvent::LockWait { .. } => 5,
            TraceEvent::MsgRecv { .. } => 6,
            TraceEvent::MsgSend { .. } => 7,
            TraceEvent::QueueDepth { .. } => 8,
            TraceEvent::RemoteOp { .. } => 9,
            TraceEvent::SplitReclaim { .. } => 10,
            TraceEvent::SplitRelease { .. } => 11,
            TraceEvent::StealAttempt { .. } => 12,
            TraceEvent::TaskExecBegin { .. } => 13,
            TraceEvent::TaskExecEnd { .. } => 14,
            TraceEvent::TdProgress { .. } => 15,
            TraceEvent::TdWave { .. } => 16,
            TraceEvent::Unblock { .. } => 17,
        }
    }

    /// Stable event name used by all exporters.
    pub fn name(&self) -> &'static str {
        Self::NAMES[self.kind()]
    }

    /// The span of a duration-carrying event, which is stamped at its
    /// completion; `None` for an instant event.
    pub fn dur_ns(&self) -> Option<u64> {
        let mut ev = *self;
        ev.dur_mut().copied()
    }

    /// The duration field of a duration-carrying event.
    pub(crate) fn dur_mut(&mut self) -> Option<&mut u64> {
        match self {
            TraceEvent::StealAttempt { dur_ns, .. }
            | TraceEvent::LockWait { dur_ns, .. }
            | TraceEvent::BarrierWait { dur_ns, .. }
            | TraceEvent::TdProgress { dur_ns } => Some(dur_ns),
            _ => None,
        }
    }

    /// Append the event's payload as JSON object members between `open`
    /// and `close`, e.g. `"victim":3,"got":2`. Nothing at all (no `open`,
    /// no `close`) for payload-free events.
    fn write_args<S: Sink>(&self, out: &mut Text<S>, open: &str, close: &str) {
        if matches!(self, TraceEvent::Block) {
            return;
        }
        out.lit(open);
        match *self {
            TraceEvent::TaskExecBegin { callback, creator } => {
                members!(out, "callback": callback, "creator": creator)
            }
            TraceEvent::TaskExecEnd { callback } => members!(out, "callback": callback),
            TraceEvent::StealAttempt { victim, got, dur_ns } => {
                members!(out, "victim": victim, "got": got, "dur": dur_ns)
            }
            TraceEvent::LockWait { target, dur_ns } => {
                members!(out, "target": target, "dur": dur_ns)
            }
            TraceEvent::BarrierWait { dur_ns, epoch } => {
                members!(out, "dur": dur_ns, "epoch": epoch)
            }
            TraceEvent::TdProgress { dur_ns } => members!(out, "dur": dur_ns),
            TraceEvent::SplitRelease { moved } | TraceEvent::SplitReclaim { moved } => {
                members!(out, "moved": moved)
            }
            TraceEvent::TdWave { wave, dir, black } => {
                members!(out, "wave": wave, "dir": dir.name(), "black": black)
            }
            TraceEvent::QueueDepth { local, shared } => {
                members!(out, "local": local, "shared": shared)
            }
            TraceEvent::Block => {}
            TraceEvent::Unblock { target } => members!(out, "target": target),
            TraceEvent::MsgSend { dst, bytes, seq } => {
                members!(out, "dst": dst, "bytes": bytes, "seq": seq)
            }
            TraceEvent::MsgRecv { src, seq } => members!(out, "src": src, "seq": seq),
            TraceEvent::RemoteOp {
                kind,
                target,
                seg,
                offset,
                bytes,
                atomic,
            } => members!(
                out, "kind": kind.name(), "target": target, "seg": seg, "off": offset,
                "bytes": bytes, "atomic": atomic
            ),
            TraceEvent::LocalAccess {
                seg,
                offset,
                bytes,
                write,
                atomic,
            } => members!(
                out, "seg": seg, "off": offset, "bytes": bytes, "write": write, "atomic": atomic
            ),
            TraceEvent::LockAcq { target, set, idx, seq }
            | TraceEvent::LockRel { target, set, idx, seq } => {
                members!(out, "target": target, "set": set, "idx": idx, "seq": seq)
            }
        }
        out.lit(close);
    }
}

/// Where export text goes, a fragment at a time.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

/// A growing buffer (the Chrome export).
impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A length pass: the byte count only.
impl Sink for usize {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

/// A slice sized by a length pass, filled front to back; what is left is
/// the part not yet written.
impl Sink for &mut [u8] {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        let head = self.split_off_mut(..bytes.len()).expect("the length pass sized the slice");
        head.copy_from_slice(bytes);
    }
}

/// Export text under construction: literal fragments and decimal integers
/// appended straight to a [`Sink`], no `core::fmt` per event. Bytes rather
/// than a `String` so digits append without a UTF-8 check per number;
/// [`Text::finish`] validates the whole buffer once (the JSONL writer
/// validates each part on the thread that wrote it).
struct Text<S>(S);

impl<S: Sink> Text<S> {
    fn lit(&mut self, s: &str) {
        self.0.put(s.as_bytes());
    }

    fn num(&mut self, mut v: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.0.put(&buf[i..]);
    }

    /// Nanoseconds as the fixed-decimal microseconds Chrome's `ts` and
    /// `dur` fields expect. Integer arithmetic only, so output is
    /// deterministic (no float formatting).
    fn ts_us(&mut self, t_ns: u64) {
        self.num(t_ns / 1_000);
        let frac = (t_ns % 1_000) as u32;
        self.0.put(&[
            b'.',
            b'0' + (frac / 100) as u8,
            b'0' + (frac / 10 % 10) as u8,
            b'0' + (frac % 10) as u8,
        ]);
    }
}

impl Text<Vec<u8>> {
    fn finish(self) -> String {
        String::from_utf8(self.0).expect("str fragments and ASCII digits")
    }
}

/// A value [`members!`] can append as JSON.
trait Member {
    fn append<S: Sink>(self, out: &mut Text<S>);
}

impl Member for u64 {
    fn append<S: Sink>(self, out: &mut Text<S>) {
        out.num(self);
    }
}

impl Member for u32 {
    fn append<S: Sink>(self, out: &mut Text<S>) {
        out.num(self.into());
    }
}

impl Member for bool {
    fn append<S: Sink>(self, out: &mut Text<S>) {
        out.lit(if self { "true" } else { "false" });
    }
}

/// Quoted, never escaped: event, direction and kind names come from fixed
/// sets, metric names from literals at the emission sites or from a file
/// whose reader refuses escapes.
impl Member for &str {
    fn append<S: Sink>(self, out: &mut Text<S>) {
        out.lit("\"");
        out.lit(self);
        out.lit("\"");
    }
}

impl Member for &[u64] {
    fn append<S: Sink>(self, out: &mut Text<S>) {
        out.lit("[");
        for (i, &v) in self.iter().enumerate() {
            if i > 0 {
                out.lit(",");
            }
            out.num(v);
        }
        out.lit("]");
    }
}

/// A [`TraceEvent`] plus the emitting rank's clock at emission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StampedEvent {
    /// Nanoseconds: the rank's virtual clock in virtual-time mode, real
    /// wall-clock time since machine start in concurrent mode (see
    /// [`Trace::wall_clock`]).
    pub t_ns: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// The gauge each rank's recorder samples once per flushed window: how
/// many `LocalAccess` records the window's summaries absorbed (records
/// offered minus summaries emitted). Its sum plus the retained events is
/// what the rank offered the recorder.
pub const MERGED_GAUGE: &str = "trace_merged";

/// One access of a fixed set an owner path offers the recorder in one
/// step ([`TraceSink::emit_set`]): a `LocalAccess` record but its
/// segment, which the offer names once for the whole set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalRecord {
    /// Byte offset of the access within the rank's segment slice.
    pub offset: u64,
    /// Bytes touched.
    pub bytes: u32,
    /// Write (true) or read (false).
    pub write: bool,
    /// Single-word access the protocol declares atomic.
    pub atomic: bool,
}

/// Whole words `lo..=hi` of one class, `seg << 2 | write << 1 | atomic`.
#[derive(Clone, Copy, Debug)]
struct WordSpan {
    class: u64,
    lo: u64,
    hi: u64,
}

/// A rank's `LocalAccess` records since its last flushing event, merged
/// into whole-word spans per `(seg, write, atomic)` class: spans of one
/// class that overlap or touch become one. One list of spans, not a
/// [`RunSet`](scioto_det::runs::RunSet) per class: the usual record
/// re-touches a span, which one scan of the few finds, and the run sets
/// cost a traced owner op more (DESIGN.md, "Coalesced local accesses").
#[derive(Debug, Default)]
struct Window {
    /// Sorted by `(class, lo)`; no two of one class overlap or touch.
    spans: Vec<WordSpan>,
    /// Records merged since the last flush.
    records: u64,
    /// Stamp of the latest merged record.
    last_t: u64,
    /// The fixed sets merged since the last flush, as `(seg, address,
    /// length)`: a repeat offer's spans are in `spans` already.
    sets: Vec<(u32, usize, usize)>,
}

impl Window {
    #[inline]
    fn add(&mut self, t_ns: u64, seg: u32, offset: u64, bytes: u32, write: bool, atomic: bool) {
        self.records += 1;
        self.last_t = t_ns;
        let class = u64::from(seg) << 2 | u64::from(write) << 1 | u64::from(atomic);
        // A record past the last byte is clipped to the last word, so that
        // its summary reads back.
        let (lo, hi) = word_range(offset, bytes).map_or((offset / 8, u64::MAX / 8), |w| w.into_inner());
        // Most records re-touch words the window holds already: the owner
        // reads its indices at every push, pop and release pre-check.
        if !self.spans.iter().any(|s| s.class == class && s.lo <= lo && hi <= s.hi) {
            self.merge(WordSpan { class, lo, hi });
        }
    }

    /// Add every record of `set` on segment `seg`, then `one` if given,
    /// all at `t_ns`. A set merged before in this window adds its record
    /// count and moves the stamp, nothing else: its spans cover it
    /// already, and the window only grows until a flush clears the memo
    /// with the spans.
    #[inline]
    fn add_set(
        &mut self,
        t_ns: u64,
        seg: u32,
        set: &'static [LocalRecord],
        one: Option<(u32, LocalRecord)>,
    ) {
        let key = (seg, set.as_ptr() as usize, set.len());
        if self.sets.contains(&key) {
            self.records += set.len() as u64;
            self.last_t = t_ns;
        } else if !set.is_empty() {
            self.sets.push(key);
            for r in set {
                self.add(t_ns, seg, r.offset, r.bytes, r.write, r.atomic);
            }
        }
        if let Some((seg, r)) = one {
            self.add(t_ns, seg, r.offset, r.bytes, r.write, r.atomic);
        }
    }

    /// Insert `span`, merged with every span of its class it overlaps or
    /// touches.
    fn merge(&mut self, mut span: WordSpan) {
        // The first span not wholly before `span`: a lower class, or one
        // ending short of `span.lo - 1`.
        let first = self.spans.partition_point(|s| (s.class, s.hi.saturating_add(1)) < (span.class, span.lo));
        let mut end = first;
        while let Some(s) = self.spans.get(end).filter(|s| s.class == span.class && s.lo <= span.hi.saturating_add(1)) {
            (span.lo, span.hi) = (span.lo.min(s.lo), span.hi.max(s.hi));
            end += 1;
        }
        if end == first {
            self.spans.insert(first, span);
        } else {
            self.spans[first] = span;
            self.spans.drain(first + 1..end);
        }
    }
}

/// Fixed-capacity ring: overwrites the oldest event when full. Recording
/// goes through [`RankRing::record`], which coalesces `LocalAccess`
/// records into one summary per window between flushing events.
#[derive(Debug, Default)]
struct RankRing {
    cap: usize,
    buf: Vec<StampedEvent>,
    /// Index of the oldest event once the ring has wrapped.
    next: usize,
    dropped: u64,
    /// Stamp of the last event pushed.
    last_t: u64,
    /// `LocalAccess` records not yet summarised.
    window: Window,
    /// [`MERGED_GAUGE`]: one sample per flushed window.
    merged: Gauge,
}

impl RankRing {
    fn with_capacity(cap: usize) -> Self {
        RankRing { cap, ..RankRing::default() }
    }

    /// Record `e`: a `LocalAccess` joins the pending window; a task
    /// boundary or a queue-depth sample leaves it open; every other kind —
    /// a kind added later included — flushes it first.
    fn record(&mut self, e: StampedEvent) {
        match e.event {
            TraceEvent::LocalAccess { seg, offset, bytes, write, atomic } => {
                self.window.add(e.t_ns, seg, offset, bytes, write, atomic);
            }
            TraceEvent::TaskExecBegin { .. }
            | TraceEvent::TaskExecEnd { .. }
            | TraceEvent::QueueDepth { .. } => self.push(e),
            _ => {
                self.flush();
                self.push(e);
            }
        }
    }

    /// Emit the pending window as one whole-word `LocalAccess` per span,
    /// in `(seg, write, atomic, first word)` order, stamped with the later
    /// of its last record and the rank's previous event: never later than
    /// the flushing event's span start, which may precede its stamp.
    fn flush(&mut self) {
        if self.window.spans.is_empty() {
            return;
        }
        let mut window = std::mem::take(&mut self.window);
        let t_ns = window.last_t.max(self.last_t);
        self.merged.record(window.records - window.spans.len() as u64);
        for s in window.spans.drain(..) {
            let bytes = (s.hi - s.lo + 1) * 8;
            self.push(StampedEvent {
                t_ns,
                event: TraceEvent::LocalAccess {
                    seg: (s.class >> 2) as u32,
                    offset: s.lo * 8,
                    bytes: bytes.try_into().expect("a window's range spans under 4 GiB"),
                    write: s.class & 2 != 0,
                    atomic: s.class & 1 != 0,
                },
            });
        }
        window.records = 0;
        window.sets.clear();
        self.window = window;
    }

    fn push(&mut self, e: StampedEvent) {
        self.last_t = e.t_ns;
        if self.cap == 0 {
            self.dropped += 1;
        } else if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Flush the pending window, then take the events in emission order
    /// (oldest surviving event first), leaving the ring empty. An
    /// unwrapped ring — the common case — is one buffer move, not a copy;
    /// this runs inside the measured span of the wall-clock overhead gate.
    fn take_chronological(&mut self) -> Vec<StampedEvent> {
        self.flush();
        if self.next == 0 {
            return std::mem::take(&mut self.buf);
        }
        let mut v = Vec::with_capacity(self.buf.len());
        v.extend_from_slice(&self.buf[self.next..]);
        v.extend_from_slice(&self.buf[..self.next]);
        self.buf.clear();
        self.next = 0;
        v
    }
}

/// Coalesce one rank's event stream exactly as the recorder does: the
/// stream with each window's `LocalAccess` records replaced by its
/// summaries, and the records those summaries absorbed (the sum of
/// [`MERGED_GAUGE`]). Recording a stream that is already coalesced
/// changes nothing.
pub fn coalesce(events: &[StampedEvent]) -> (Vec<StampedEvent>, u64) {
    let mut ring = RankRing::with_capacity(usize::MAX);
    for &e in events {
        ring.record(e);
    }
    let out = ring.take_chronological();
    (out, ring.merged.sum)
}

/// A sampled gauge: tracks last, max and mean of the sampled values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Number of samples taken.
    pub samples: u64,
    /// Sum of all samples (for the mean).
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Most recent sample.
    pub last: u64,
}

impl Gauge {
    fn record(&mut self, v: u64) {
        self.samples += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    /// Mean sampled value (0.0 if never sampled).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

/// Interior-mutable per-rank slot with a single-writer discipline instead
/// of a lock.
///
/// Safety contract (enforced by the kernel's emission paths, not the
/// type): during a run, slot `rank` is mutated only by that rank's own
/// thread — every `Kernel::emit`/`gauge` call passes the caller's
/// own rank. Reads happen only in [`TraceSink::finish`], after
/// `Machine::run` has joined every rank thread (the join is the
/// happens-before edge that publishes the writes). In concurrent mode
/// this keeps trace emission lock-free on the measured path; in
/// virtual-time mode at most one rank runs at a time anyway.
struct RankCell<T>(UnsafeCell<T>);

// SAFETY: see the single-writer contract above — distinct threads never
// touch the same cell concurrently, and the final reads are ordered
// after all writes by thread join.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for RankCell<T> {}

#[allow(unsafe_code)]
impl<T> RankCell<T> {
    fn new(v: T) -> Self {
        RankCell(UnsafeCell::new(v))
    }

    /// Mutate the slot. Caller must be the owning rank's thread (the
    /// cell's single writer).
    #[inline]
    fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        // SAFETY: single-writer contract (struct docs) — no other thread
        // holds a reference to this slot while its owner writes.
        f(unsafe { &mut *self.0.get() })
    }

    /// Read the slot. Caller must guarantee no concurrent writer — in
    /// practice, only after every rank thread has been joined.
    fn read(&self) -> &T {
        // SAFETY: callers only read after the run's threads are joined,
        // so all writes happened-before this borrow.
        unsafe { &*self.0.get() }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RankCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankCell").finish_non_exhaustive()
    }
}

/// Live per-rank trace storage. Each rank's ring and gauges are touched
/// only by that rank's thread during a run ([`RankCell`]'s single-writer
/// contract), so emission takes no lock — a deliberate property for
/// concurrent mode, where a shared lock would perturb the timing the
/// trace is supposed to measure.
#[derive(Debug)]
pub struct TraceBuffers {
    rings: Vec<RankCell<RankRing>>,
    /// Gauge registries are small (a handful of `&'static str` names per
    /// rank), so a linear Vec with a pointer-equality fast path beats a
    /// BTreeMap lookup per sample; [`TraceSink::finish`] converts to the
    /// sorted map form the exporters expect.
    gauges: Vec<RankCell<Vec<(&'static str, Gauge)>>>,
}

/// Find-or-insert `name` in a linear gauge registry. Gauge names are
/// `&'static str` constants, so repeat samples from the same call site
/// hit the pointer comparison; the content fallback covers equal names
/// spelled as different constants.
fn reg_entry<'a>(reg: &'a mut Vec<(&'static str, Gauge)>, name: &'static str) -> &'a mut Gauge {
    let pos = reg.iter().position(|&(k, _)| {
        (k.as_ptr() == name.as_ptr() && k.len() == name.len()) || k == name
    });
    match pos {
        Some(i) => &mut reg[i].1,
        None => {
            reg.push((name, Gauge::default()));
            &mut reg.last_mut().expect("just pushed").1
        }
    }
}

/// The emission gate held by the scheduling kernel. `Disabled` makes
/// every emission site a single branch; event construction is deferred
/// into a closure that never runs when tracing is off.
#[derive(Debug)]
pub enum TraceSink {
    /// Tracing off: emissions are a branch on a bool.
    Disabled,
    /// Tracing on: events land in per-rank rings.
    Enabled(TraceBuffers),
}

impl TraceSink {
    /// Build a sink for `ranks` ranks according to `cfg`.
    pub fn new(cfg: &TraceConfig, ranks: usize) -> Self {
        if !cfg.enabled {
            return TraceSink::Disabled;
        }
        TraceSink::Enabled(TraceBuffers {
            rings: (0..ranks)
                .map(|_| RankCell::new(RankRing::with_capacity(cfg.ring_capacity)))
                .collect(),
            gauges: (0..ranks).map(|_| RankCell::new(Vec::new())).collect(),
        })
    }

    /// Is tracing on?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        matches!(self, TraceSink::Enabled(_))
    }

    /// Record an event for `rank` at time `t_ns`. `make` is only invoked
    /// when tracing is enabled. Must be called from `rank`'s own thread
    /// (`RankCell`'s single-writer contract) — every kernel emission
    /// path passes the caller's own rank.
    #[inline]
    pub fn emit(&self, rank: usize, t_ns: u64, make: impl FnOnce() -> TraceEvent) {
        if let TraceSink::Enabled(b) = self {
            let e = StampedEvent {
                t_ns,
                event: make(),
            };
            b.rings[rank].with_mut(|r| r.record(e));
        }
    }

    /// Record the owner-side accesses of the fixed set `set` on segment
    /// `seg`, and the access `one` on its own segment if given, for `rank`
    /// at `t_ns`, as if each were a `LocalAccess` emitted at that stamp
    /// (own-thread only, like [`TraceSink::emit`]). The recorder knows a
    /// set by its address: a set it merged since the last flushing event
    /// costs a count and a stamp.
    #[inline]
    pub fn emit_set(
        &self,
        rank: usize,
        t_ns: u64,
        seg: u32,
        set: &'static [LocalRecord],
        one: Option<(u32, LocalRecord)>,
    ) {
        if let TraceSink::Enabled(b) = self {
            b.rings[rank].with_mut(|r| r.window.add_set(t_ns, seg, set, one));
        }
    }

    /// Record a gauge sample for `rank` under `name` (own-thread only,
    /// like [`TraceSink::emit`]).
    #[inline]
    pub fn gauge(&self, rank: usize, name: &'static str, v: u64) {
        if let TraceSink::Enabled(b) = self {
            b.gauges[rank].with_mut(|g| reg_entry(g, name).record(v));
        }
    }

    /// Freeze the sink into an exportable [`Trace`] (None when disabled).
    /// Caller must have joined every rank thread first — `Machine::run`
    /// only calls this after the run's thread scope (or fiber set) has
    /// completed, which publishes all per-rank writes.
    pub fn finish(&self) -> Option<Trace> {
        let TraceSink::Enabled(b) = self else {
            return None;
        };
        let mut events = Vec::with_capacity(b.rings.len());
        let mut dropped = Vec::with_capacity(b.rings.len());
        let mut merged = Vec::with_capacity(b.rings.len());
        for ring in &b.rings {
            // Mutating the cells is safe: finish() runs after every rank
            // thread joined.
            ring.with_mut(|r| {
                events.push(r.take_chronological());
                dropped.push(r.dropped);
                merged.push(r.merged);
            });
        }
        // The linear live registries convert to sorted maps here, so
        // exports keep their name-ordered, byte-stable form; a rank that
        // merged no window carries no merge gauge.
        let gauges = b.gauges.iter().zip(merged).map(|(g, merged)| {
            let mut reg: BTreeMap<String, Gauge> =
                g.read().iter().map(|&(k, v)| (k.to_string(), v)).collect();
            if merged.samples > 0 {
                reg.insert(MERGED_GAUGE.to_string(), merged);
            }
            reg
        });
        Some(Trace {
            events,
            dropped,
            final_clock_ns: Vec::new(),
            wall_clock: false,
            gauges: gauges.collect(),
        })
    }
}

/// A frozen trace of one completed run: per-rank event timelines plus the
/// gauge registries. Attached to [`crate::Report::trace`] when the
/// machine ran with tracing enabled.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Per-rank events in emission order (oldest surviving first).
    pub events: Vec<Vec<StampedEvent>>,
    /// Per-rank count of events lost to ring overflow.
    pub dropped: Vec<u64>,
    /// Each rank's elapsed time (final virtual clock, or the thread's
    /// measured wall-clock span in concurrent mode). Populated by
    /// `Machine::run`; empty for hand-built traces — consumers should
    /// fall back to the rank's latest event timestamp (see
    /// [`Trace::elapsed_ns`]).
    pub final_clock_ns: Vec<u64>,
    /// True when the trace was recorded in [`crate::ExecMode::Concurrent`]:
    /// timestamps are real wall-clock nanoseconds since machine start
    /// (monotonic per run, NOT reproducible across runs, and not
    /// replayable on the virtual-time kernel). Serialized as
    /// `"clock":"wall"` in the JSONL meta header and the Chrome
    /// `sciotoMeta` trailer; absent for virtual-time traces so their
    /// exports stay byte-identical to earlier schema versions.
    pub wall_clock: bool,
    /// Per-rank gauges, keyed by metric name.
    pub gauges: Vec<BTreeMap<String, Gauge>>,
}

impl Trace {
    /// Number of ranks this trace covers.
    pub fn nranks(&self) -> usize {
        self.events.len()
    }

    /// Events recorded by `rank`.
    pub fn events_for(&self, rank: usize) -> &[StampedEvent] {
        &self.events[rank]
    }

    /// Total events across all ranks.
    pub fn total_events(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }

    /// Elapsed virtual time of `rank`: its final clock when recorded,
    /// otherwise the timestamp of its latest event (0 if none).
    pub fn elapsed_ns(&self, rank: usize) -> u64 {
        self.final_clock_ns
            .get(rank)
            .copied()
            .unwrap_or_else(|| self.events[rank].iter().map(|e| e.t_ns).max().unwrap_or(0))
    }

    /// Chrome `trace_event` JSON: one track (tid) per rank, `B`/`E` pairs
    /// for task execution, complete (`X`) events for duration-carrying
    /// records (steal attempts, lock waits, barrier waits, TD polls),
    /// counters for queue depth, instants for everything else. A
    /// `sciotoMeta` top-level member (ignored by viewers) carries per-rank
    /// drop counts and final clocks. Open in `chrome://tracing` or
    /// Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut text = Text(Vec::with_capacity(256 + 144 * (self.nranks() + self.total_events())));
        let out = &mut text;
        out.lit(
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"scioto virtual machine\"}}",
        );
        for rank in 0..self.nranks() as u64 {
            out.lit(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
            out.num(rank);
            out.lit(",\"args\":{\"name\":\"rank ");
            out.num(rank);
            out.lit("\"}}");
        }
        for (rank, events) in self.events.iter().enumerate() {
            for e in events {
                out.lit(",\n");
                chrome_event(out, rank as u64, e);
            }
        }
        out.lit("\n],\"sciotoMeta\":{");
        self.write_meta(out);
        out.lit("}}\n");
        text.finish()
    }

    /// What both exports' meta objects end with: per-rank drop counts and
    /// final clocks, plus the wall-clock (concurrent-mode) marker by which
    /// consumers classify the trace as non-replayable real time — omitted
    /// for virtual-time traces so their exports stay byte-identical.
    fn write_meta<S: Sink>(&self, out: &mut Text<S>) {
        members!(out, "dropped": &self.dropped[..], "final_clock_ns": &self.final_clock_ns[..]);
        if self.wall_clock {
            out.lit(",\"clock\":\"wall\"");
        }
    }

    /// Flat JSONL dump: a meta header line (`{"meta":...}` with rank
    /// count, per-rank drop counts and final clocks), one line per gauge
    /// registry entry (rank-major, name order), then one JSON object per
    /// event, rank-major then chronological, timestamps in exact virtual
    /// nanoseconds. The header and gauge lines make a JSONL file
    /// self-contained for re-analysis (`scioto-analyze` reads all of it
    /// back). Written in parts on up to one thread per core
    /// ([`scioto_det::par::parts_for`]); the text does not depend on the
    /// part count.
    pub fn to_jsonl(&self) -> String {
        // An event line of a UTS or Table 1 recording averages 91 bytes.
        self.to_jsonl_in(parts_for(96 * self.total_events()))
    }

    /// [`Trace::to_jsonl`] in `parts` (at least one) ranges of equal event
    /// count: each range is sized by a length pass through the same writer,
    /// then written into its own slice of one buffer and checked to be
    /// UTF-8, on a thread of its own.
    #[allow(unsafe_code)]
    pub(crate) fn to_jsonl_in(&self, parts: usize) -> String {
        let (n, parts) = (self.total_events(), parts.max(1));
        let ranges = (0..parts).map(|p| n * p / parts..n * (p + 1) / parts);
        let lens = in_parts(ranges.clone().enumerate(), |(p, events)| {
            let mut len = Text(0);
            self.write_jsonl_part(&mut len, p == 0, events);
            len.0
        });
        let mut text = vec![0u8; lens.iter().sum()];
        let mut rest = &mut text[..];
        let slices = lens.iter().map(|&len| rest.split_off_mut(..len).expect("the parts' sum"));
        in_parts(slices.zip(ranges).enumerate(), |(p, (slice, events))| {
            let mut out = Text(&mut slice[..]);
            self.write_jsonl_part(&mut out, p == 0, events);
            assert!(out.0.is_empty(), "the length pass sized part {p} exactly");
            std::str::from_utf8(slice).expect("str fragments and ASCII digits");
        });
        // SAFETY: every part of `text` was just checked to be UTF-8, and
        // UTF-8 strings back to back are UTF-8.
        unsafe { String::from_utf8_unchecked(text) }
    }

    /// The lines of the rank-major events at `events`, after the header and
    /// gauge lines if `head`.
    fn write_jsonl_part<S: Sink>(&self, out: &mut Text<S>, head: bool, events: Range<usize>) {
        if head {
            out.lit("{");
            members!(out, "meta": "scioto-trace", "version": 4u64, "ranks": self.nranks() as u64);
            out.lit(",");
            self.write_meta(out);
            out.lit("}\n");
            for (rank, per_rank) in self.gauges.iter().enumerate() {
                for (name, g) in per_rank {
                    out.lit("{");
                    members!(
                        out, "gauge": &name[..], "rank": rank as u64, "samples": g.samples,
                        "sum": g.sum, "max": g.max, "last": g.last
                    );
                    out.lit("}\n");
                }
            }
        }
        let ordered = self.events.iter().enumerate().flat_map(|(rank, per_rank)| {
            per_rank.iter().map(move |e| (rank as u64, e))
        });
        for (rank, e) in ordered.skip(events.start).take(events.len()) {
            out.lit("{");
            members!(out, "rank": rank, "t": e.t_ns, "ev": e.event.name());
            e.event.write_args(out, ",", "");
            out.lit("}\n");
        }
    }
}

fn chrome_event(out: &mut Text<Vec<u8>>, rank: u64, e: &StampedEvent) {
    out.lit("{\"name\":\"");
    let dur = e.event.dur_ns();
    match e.event {
        TraceEvent::TaskExecBegin { .. } => {
            out.lit("TaskExec\",\"cat\":\"task\",\"ph\":\"B\",\"ts\":");
        }
        TraceEvent::TaskExecEnd { .. } => {
            out.lit("TaskExec\",\"cat\":\"task\",\"ph\":\"E\",\"ts\":");
        }
        TraceEvent::QueueDepth { .. } => {
            out.lit("queue depth r");
            out.num(rank);
            out.lit("\",\"ph\":\"C\",\"ts\":");
        }
        ev if dur.is_some() => {
            // Stamped at completion: render as a complete (X) event whose
            // ts is the span start.
            out.lit(ev.name());
            out.lit("\",\"cat\":\"rt\",\"ph\":\"X\",\"ts\":");
        }
        ev => {
            out.lit(ev.name());
            out.lit("\",\"cat\":\"rt\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
        }
    }
    out.ts_us(e.t_ns.saturating_sub(dur.unwrap_or(0)));
    if let Some(dur_ns) = dur {
        out.lit(",\"dur\":");
        out.ts_us(dur_ns);
    }
    out.lit(",\"pid\":0,\"tid\":");
    out.num(rank);
    // An end marker repeats nothing: its begin carries the task's args.
    if !matches!(e.event, TraceEvent::TaskExecEnd { .. }) {
        e.event.write_args(out, ",\"args\":{", "}");
    }
    out.lit("}");
}

/// Validate that `s` is one well-formed JSON document. Returns a byte
/// offset and description of the first error. Hand-rolled (the build is
/// hermetic — no serde); the exporters' tests prove with it that every
/// trace and report export parses, and `bench_diff` refuses a bench
/// document it rejects.
pub fn validate_json(s: &str) -> Result<(), String> {
    let mut p = JsonParser {
        b: s.as_bytes(),
        i: 0,
    };
    p.ws();
    p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(())
}

struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.i += 1; // consume '{'
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            self.string()?;
            self.ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.i += 1;
            self.ws();
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.i += 1; // consume '['
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.i += 1; // consume '"'
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                                    return Err(self.err("bad \\u escape"));
                                }
                                self.i += 1;
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => self.i += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(c) if c.is_ascii_digit() => {
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("expected fraction digit"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.err("expected exponent digit"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_trace() -> Trace {
        let sink = TraceSink::new(&TraceConfig::enabled().with_capacity(8), 2);
        sink.emit(0, 10, || TraceEvent::TaskExecBegin {
            callback: 1,
            creator: 1,
        });
        sink.emit(0, 50, || TraceEvent::TaskExecEnd { callback: 1 });
        sink.emit(0, 60, || TraceEvent::StealAttempt {
            victim: 1,
            got: 2,
            dur_ns: 8,
        });
        sink.emit(1, 5, || TraceEvent::TdWave {
            wave: 1,
            dir: WaveDir::Down,
            black: false,
        });
        sink.emit(1, 7, || TraceEvent::QueueDepth {
            local: 3,
            shared: 1,
        });
        sink.gauge(1, "queue_local", 3);
        let mut t = sink.finish().expect("enabled sink yields a trace");
        t.final_clock_ns = vec![60, 7];
        t
    }

    #[test]
    fn disabled_sink_skips_construction_and_yields_no_trace() {
        let sink = TraceSink::new(&TraceConfig::disabled(), 2);
        assert!(!sink.is_enabled());
        sink.emit(0, 0, || panic!("closure must not run when disabled"));
        sink.gauge(0, "g", 1);
        assert!(sink.finish().is_none());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = RankRing::with_capacity(3);
        for t in 0..5u64 {
            r.push(StampedEvent {
                t_ns: t,
                event: TraceEvent::Block,
            });
        }
        assert_eq!(r.dropped, 2);
        let chron: Vec<u64> = r.take_chronological().iter().map(|e| e.t_ns).collect();
        assert_eq!(chron, vec![2, 3, 4]);
        assert!(r.take_chronological().is_empty(), "take drains the ring");
    }

    fn local(t_ns: u64, seg: u32, offset: u64, bytes: u32, write: bool, atomic: bool) -> StampedEvent {
        StampedEvent { t_ns, event: TraceEvent::LocalAccess { seg, offset, bytes, write, atomic } }
    }

    fn at(t_ns: u64, event: TraceEvent) -> StampedEvent {
        StampedEvent { t_ns, event }
    }

    #[test]
    fn a_window_of_local_accesses_becomes_one_summary_per_class_and_range() {
        let (begin, end) = (TraceEvent::TaskExecBegin { callback: 0, creator: 0 }, TraceEvent::TaskExecEnd { callback: 0 });
        let depth = TraceEvent::QueueDepth { local: 1, shared: 0 };
        let acq = TraceEvent::LockAcq { target: 0, set: 0, idx: 0, seq: 1 };
        let raw = [
            local(1, 0, 0, 8, false, false),
            at(2, begin),
            // Touches word 0: one range, words 0..=1.
            local(3, 0, 8, 8, false, false),
            // The same word marked atomic, and a part-word write: two more
            // classes, whole words.
            local(4, 0, 8, 8, false, true),
            local(5, 0, 4, 2, true, false),
            at(6, depth),
            local(7, 1, 32, 8, false, false),
            at(9, end),
            // Flushes: the window's summaries precede it, stamped at the
            // later of the last record (7) and the previous event (9).
            at(10, acq),
            local(11, 0, 24, 8, false, false),
            local(12, 0, 0, 8, false, false),
        ];
        let (out, merged) = coalesce(&raw);
        let want = [
            at(2, begin),
            at(6, depth),
            at(9, end),
            local(9, 0, 0, 16, false, false),
            local(9, 0, 8, 8, false, true),
            local(9, 0, 0, 8, true, false),
            local(9, 1, 32, 8, false, false),
            at(10, acq),
            // The end of the stream flushes; words 0 and 3 do not touch.
            local(12, 0, 0, 8, false, false),
            local(12, 0, 24, 8, false, false),
        ];
        assert_eq!(out, want);
        assert_eq!(merged, 1, "five records in four summaries, then two in two");
        assert_eq!(coalesce(&out), (out.clone(), 0), "a coalesced stream is a fixed point");
    }

    #[test]
    fn summaries_never_take_the_flushing_events_stamp() {
        // A barrier wait is stamped at its release: its summary keeps the
        // stamp of the last record, before the wait's arrival at 17.
        let wait = TraceEvent::BarrierWait { dur_ns: 3, epoch: 0 };
        let (out, _) = coalesce(&[local(5, 0, 0, 8, true, false), at(20, wait)]);
        assert_eq!(out, [local(5, 0, 0, 8, true, false), at(20, wait)]);
        // Every kind but the three that keep a window open flushes it.
        let every_other_kind = [
            TraceEvent::BarrierWait { dur_ns: 0, epoch: 0 },
            TraceEvent::Block,
            TraceEvent::LockAcq { target: 0, set: 0, idx: 0, seq: 1 },
            TraceEvent::LockRel { target: 0, set: 0, idx: 0, seq: 1 },
            TraceEvent::LockWait { target: 0, dur_ns: 0 },
            TraceEvent::MsgRecv { src: 0, seq: 1 },
            TraceEvent::MsgSend { dst: 0, bytes: 8, seq: 1 },
            TraceEvent::QueueDepth { local: 0, shared: 0 },
            TraceEvent::RemoteOp { kind: RemoteOpKind::Get, target: 0, seg: 0, offset: 0, bytes: 8, atomic: false },
            TraceEvent::SplitReclaim { moved: 1 },
            TraceEvent::SplitRelease { moved: 1 },
            TraceEvent::StealAttempt { victim: 0, got: 0, dur_ns: 0 },
            TraceEvent::TaskExecBegin { callback: 0, creator: 0 },
            TraceEvent::TaskExecEnd { callback: 0 },
            TraceEvent::TdProgress { dur_ns: 0 },
            TraceEvent::TdWave { wave: 1, dir: WaveDir::Down, black: false },
            TraceEvent::Unblock { target: 0 },
        ];
        let kinds: Vec<usize> = every_other_kind.iter().map(TraceEvent::kind).collect();
        assert_eq!(kinds, (0..TraceEvent::NAMES.len()).filter(|&k| k != 2).collect::<Vec<_>>());
        for event in every_other_kind {
            let (out, _) = coalesce(&[local(1, 0, 0, 8, false, false), at(2, event)]);
            let flushed = out[0].event.kind() != event.kind();
            let open = matches!(event.name(), "QueueDepth" | "TaskExecBegin" | "TaskExecEnd");
            assert_eq!(flushed, !open, "{}", event.name());
        }
    }

    #[test]
    fn the_merge_gauge_rides_only_with_merged_windows() {
        let sink = TraceSink::new(&TraceConfig::enabled(), 2);
        for t in 0..3 {
            sink.emit(0, t, || TraceEvent::LocalAccess { seg: 0, offset: 0, bytes: 16, write: false, atomic: false });
        }
        sink.emit(0, 4, || TraceEvent::Block);
        sink.emit(1, 4, || TraceEvent::Block);
        let t = sink.finish().unwrap();
        assert_eq!(t.total_events(), 3);
        assert_eq!(t.gauges[0][MERGED_GAUGE], Gauge { samples: 1, sum: 2, max: 2, last: 2 });
        assert!(t.gauges[1].is_empty());
        assert!(t.to_jsonl().starts_with("{\"meta\":\"scioto-trace\",\"version\":4,"));
    }

    /// Owner-op sets as the split queue offers them: a five-record meta
    /// set, the index read on its own, and a prefix of the first (same
    /// address, another length).
    static OWNER_OP: [LocalRecord; 5] = [
        LocalRecord { offset: 0, bytes: 16, write: false, atomic: false },
        LocalRecord { offset: 16, bytes: 8, write: false, atomic: true },
        LocalRecord { offset: 0, bytes: 8, write: true, atomic: true },
        LocalRecord { offset: 0, bytes: 16, write: false, atomic: false },
        LocalRecord { offset: 16, bytes: 8, write: false, atomic: true },
    ];
    static INDEX_READ: [LocalRecord; 2] = [
        LocalRecord { offset: 0, bytes: 16, write: false, atomic: false },
        LocalRecord { offset: 16, bytes: 8, write: false, atomic: true },
    ];

    /// One step of an owner's stream: a fixed set on a segment, with a
    /// slot access or without, or one event.
    #[derive(Clone, Copy)]
    enum Offer {
        Set(u32, &'static [LocalRecord], Option<(u32, LocalRecord)>),
        One(TraceEvent),
    }

    /// A seeded stream of owner ops on one rank: fixed sets on two
    /// segments, with a slot access on a third or without, slot records on
    /// their own, task boundaries and depth samples (which keep a window
    /// open) and flushing events, at non-decreasing stamps.
    /// It opens with the three shapes the recorder must get right: a
    /// flushing event between two ops, two different sets in one window,
    /// and a set offered again after a flush.
    fn owner_stream(seed: u64) -> Vec<(u64, Offer)> {
        let mut x = seed;
        let mut next = |n: u64| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        let sets: [&'static [LocalRecord]; 3] = [&OWNER_OP, &INDEX_READ, &OWNER_OP[..2]];
        let block = Offer::One(TraceEvent::Block);
        let slot = |i: u64, write| LocalRecord { offset: 64 * i, bytes: 64, write, atomic: false };
        let lone_slot = |i: u64, write| Offer::One(local(0, 2, 64 * i, 64, write, false).event);
        let mut out = vec![
            (1, Offer::Set(0, &OWNER_OP, Some((2, slot(0, true))))),
            (1, lone_slot(1, true)),
            (2, block),
            (3, Offer::Set(0, &OWNER_OP, None)),
            (4, Offer::Set(0, &INDEX_READ, None)),
            (5, Offer::Set(0, &OWNER_OP, Some((2, slot(1, false))))),
            (6, Offer::One(TraceEvent::TaskExecBegin { callback: 0, creator: 0 })),
            (7, Offer::Set(0, &OWNER_OP, None)),
            (8, block),
            (9, Offer::Set(0, &OWNER_OP, Some((2, slot(1, true))))),
        ];
        let mut t = 9;
        for _ in 0..400 {
            t += next(3);
            let offer = match next(10) {
                0..=4 => {
                    let one = (next(2) == 0).then(|| (2, slot(next(4), next(2) == 0)));
                    Offer::Set(next(2) as u32, sets[next(3) as usize], one)
                }
                5 => lone_slot(next(4), next(2) == 0),
                6 => Offer::One(TraceEvent::TaskExecEnd { callback: 0 }),
                7 => Offer::One(TraceEvent::QueueDepth { local: 1, shared: 0 }),
                8 => block,
                _ => Offer::One(TraceEvent::LockAcq { target: 0, set: 0, idx: 0, seq: t }),
            };
            out.push((t, offer));
        }
        out
    }

    /// `offer` as the events it stands for, one record at a time.
    fn one_by_one(t_ns: u64, offer: Offer) -> Vec<StampedEvent> {
        match offer {
            Offer::Set(seg, set, one) => set
                .iter()
                .map(|&r| (seg, r))
                .chain(one)
                .map(|(seg, r)| local(t_ns, seg, r.offset, r.bytes, r.write, r.atomic))
                .collect(),
            Offer::One(event) => vec![at(t_ns, event)],
        }
    }

    #[test]
    fn fixed_set_offers_record_what_their_records_one_by_one_do() {
        for seed in 0..16 {
            let stream = owner_stream(seed);
            let raw: Vec<StampedEvent> = stream.iter().flat_map(|&(t, offer)| one_by_one(t, offer)).collect();
            for cap in [1 << 12, 7, 0] {
                let [sets, records] = [true, false].map(|as_sets| {
                    let sink = TraceSink::new(&TraceConfig::enabled().with_capacity(cap), 1);
                    for &(t_ns, offer) in &stream {
                        match offer {
                            Offer::Set(seg, set, one) if as_sets => sink.emit_set(0, t_ns, seg, set, one),
                            _ => one_by_one(t_ns, offer).into_iter().for_each(|e| sink.emit(0, e.t_ns, || e.event)),
                        }
                    }
                    sink.finish().expect("enabled")
                });
                assert_eq!(sets, records, "seed {seed}, capacity {cap}");
                let merged = sets.gauges[0].get(MERGED_GAUGE).copied().unwrap_or_default();
                if cap == 1 << 12 {
                    let (coalesced, absorbed) = coalesce(&raw);
                    assert_eq!(sets.events[0], coalesced, "seed {seed}");
                    assert_eq!(merged.sum, absorbed, "seed {seed}");
                    assert!(absorbed > raw.len() as u64 / 3, "seed {seed}: the stream repeats its sets");
                }
            }
        }
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut r = RankRing::with_capacity(0);
        r.push(StampedEvent {
            t_ns: 1,
            event: TraceEvent::Block,
        });
        assert_eq!(r.dropped, 1);
        assert!(r.take_chronological().is_empty());
    }

    #[test]
    fn gauge_tracks_last_max_mean() {
        let mut g = Gauge::default();
        for v in [4, 10, 1] {
            g.record(v);
        }
        assert_eq!(g.last, 1);
        assert_eq!(g.max, 10);
        assert!((g.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_export_parses_and_has_rank_tracks() {
        let t = synthetic_trace();
        let json = t.to_chrome_json();
        validate_json(&json).expect("chrome export must be valid JSON");
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"victim\":1"));
        // StealAttempt carries a duration: rendered as a complete event
        // starting at t - dur (60 - 8 = 52 ns).
        assert!(json.contains("\"ph\":\"X\",\"ts\":0.052,\"dur\":0.008"));
        // Per-rank drop counts and final clocks ride along for tools.
        assert!(json.contains("\"sciotoMeta\":{\"dropped\":[0,0],\"final_clock_ns\":[60,7]}"));
        // ts stamps are fixed-decimal microseconds derived from integer ns.
        assert!(json.contains("\"ts\":0.010"));
    }

    #[test]
    fn jsonl_export_lines_each_parse() {
        let t = synthetic_trace();
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 7, "meta header + 1 gauge + 5 events");
        for line in jsonl.lines() {
            validate_json(line).expect("every JSONL line must parse");
        }
        let meta = jsonl.lines().next().unwrap();
        assert!(meta.contains("\"meta\":\"scioto-trace\""));
        assert!(meta.contains("\"ranks\":2"));
        assert!(meta.contains("\"final_clock_ns\":[60,7]"));
        assert!(jsonl.contains("\"ev\":\"TdWave\""));
        assert!(jsonl.contains("\"dir\":\"down\""));
        assert!(jsonl.contains("\"victim\":1,\"got\":2,\"dur\":8"));
        // Gauge registries ride along as their own lines.
        assert!(jsonl.contains(
            "{\"gauge\":\"queue_local\",\"rank\":1,\"samples\":1,\"sum\":3,\
             \"max\":3,\"last\":3}"
        ));
    }

    #[test]
    fn jsonl_text_does_not_depend_on_the_part_count() {
        // One rank; ranks whose events straddle every cut, with an empty
        // rank between them; no events at all; more parts than events.
        let one_rank = TraceSink::new(&TraceConfig::enabled(), 1);
        for t in 0..9 {
            one_rank.emit(0, t * 7, || TraceEvent::SplitRelease { moved: t as u32 });
        }
        one_rank.gauge(0, "queue_local", 4);
        let ragged = TraceSink::new(&TraceConfig::enabled(), 4);
        for (rank, n) in [(0, 23), (2, 41), (3, 1)] {
            for t in 0..n {
                ragged.emit(rank, t, || TraceEvent::MsgSend { dst: 1, bytes: 8, seq: t });
            }
        }
        let quiet = TraceSink::new(&TraceConfig::enabled(), 3);
        quiet.gauge(2, "queue_shared", 1);
        let traces = [Some(synthetic_trace()), one_rank.finish(), ragged.finish(), quiet.finish()]
            .map(|t| t.expect("enabled sink yields a trace"));
        for t in &traces {
            let whole = t.to_jsonl_in(1);
            assert_eq!(
                whole.lines().count(),
                1 + t.total_events() + t.gauges.iter().map(BTreeMap::len).sum::<usize>()
            );
            assert!(whole.starts_with("{\"meta\":\"scioto-trace\""));
            for parts in 2..=8 {
                assert_eq!(t.to_jsonl_in(parts), whole, "{parts} parts, {} ranks", t.nranks());
            }
            assert_eq!(t.to_jsonl(), whole);
        }
    }

    #[test]
    fn a_non_ascii_gauge_name_reads_back_at_every_part_count() {
        let sink = TraceSink::new(&TraceConfig::enabled(), 2);
        for t in 0..40u64 {
            sink.emit((t % 2) as usize, t, || TraceEvent::MsgSend { dst: 0, bytes: 8, seq: t });
        }
        let name = "tâche_über_队列";
        sink.gauge(1, name, 7);
        let t = sink.finish().unwrap();
        let whole = t.to_jsonl_in(1);
        for parts in 1..=8 {
            let text = t.to_jsonl_in(parts);
            assert_eq!(text, whole, "{parts} parts");
            let gauge = text.lines().find(|l| l.starts_with("{\"gauge\"")).expect("a gauge line");
            validate_json(gauge).expect("the gauge line parses");
            assert_eq!(gauge.split('"').nth(3), Some(name), "{parts} parts");
        }
    }

    #[test]
    fn sync_and_access_events_serialize_their_fields() {
        let sink = TraceSink::new(&TraceConfig::enabled(), 2);
        sink.emit(0, 10, || TraceEvent::LockAcq { target: 1, set: 0, idx: 3, seq: 2 });
        sink.emit(0, 20, || TraceEvent::RemoteOp {
            kind: RemoteOpKind::Put,
            target: 1,
            seg: 4,
            offset: 128,
            bytes: 8,
            atomic: true,
        });
        sink.emit(0, 30, || TraceEvent::LockRel { target: 1, set: 0, idx: 3, seq: 2 });
        sink.emit(1, 5, || TraceEvent::LocalAccess {
            seg: 4,
            offset: 136,
            bytes: 16,
            write: true,
            atomic: false,
        });
        sink.emit(1, 8, || TraceEvent::MsgSend { dst: 0, bytes: 24, seq: 7 });
        sink.emit(1, 9, || TraceEvent::MsgRecv { src: 0, seq: 7 });
        sink.emit(1, 12, || TraceEvent::BarrierWait { dur_ns: 4, epoch: 1 });
        let t = sink.finish().unwrap();
        let jsonl = t.to_jsonl();
        for line in jsonl.lines() {
            validate_json(line).expect("every JSONL line must parse");
        }
        assert!(jsonl.contains(
            "\"ev\":\"LockAcq\",\"target\":1,\"set\":0,\"idx\":3,\"seq\":2"
        ));
        assert!(jsonl.contains(
            "\"ev\":\"RemoteOp\",\"kind\":\"put\",\"target\":1,\"seg\":4,\"off\":128,\
             \"bytes\":8,\"atomic\":true"
        ));
        assert!(jsonl.contains(
            "\"ev\":\"LocalAccess\",\"seg\":4,\"off\":136,\"bytes\":16,\
             \"write\":true,\"atomic\":false"
        ));
        assert!(jsonl.contains("\"ev\":\"MsgSend\",\"dst\":0,\"bytes\":24,\"seq\":7"));
        assert!(jsonl.contains("\"ev\":\"MsgRecv\",\"src\":0,\"seq\":7"));
        assert!(jsonl.contains("\"ev\":\"BarrierWait\",\"dur\":4,\"epoch\":1"));
        // The chrome exporter must also accept every new variant.
        validate_json(&t.to_chrome_json()).expect("chrome export must be valid JSON");
    }

    #[test]
    fn elapsed_falls_back_to_latest_event_when_clocks_missing() {
        let mut t = synthetic_trace();
        assert_eq!(t.elapsed_ns(0), 60);
        t.final_clock_ns.clear();
        assert_eq!(t.elapsed_ns(0), 60);
        assert_eq!(t.elapsed_ns(1), 7);
    }

    #[test]
    fn emission_lands_in_the_ring_in_order_and_overflow_keeps_the_newest() {
        // Interleaved ranks keep their own emission order; a full ring
        // overwrites its oldest events and counts each one dropped.
        let sink = TraceSink::new(&TraceConfig::enabled().with_capacity(2), 2);
        for t in 0..7u64 {
            sink.emit(0, t, || TraceEvent::TdProgress { dur_ns: t });
            sink.emit(1, t * 2, || TraceEvent::Block);
        }
        let trace = sink.finish().unwrap();
        let stamps = |r: usize| -> Vec<u64> {
            trace.events_for(r).iter().map(|e| e.t_ns).collect()
        };
        assert_eq!(stamps(0), vec![5, 6]);
        assert_eq!(stamps(1), vec![10, 12]);
        assert_eq!(trace.dropped, vec![5, 5]);
    }

    #[test]
    fn wall_clock_marker_rides_in_both_exports() {
        let mut t = synthetic_trace();
        t.wall_clock = true;
        let jsonl = t.to_jsonl();
        let meta = jsonl.lines().next().unwrap();
        validate_json(meta).expect("wall-clock meta header must parse");
        assert!(meta.contains("\"clock\":\"wall\""));
        let chrome = t.to_chrome_json();
        validate_json(&chrome).expect("wall-clock chrome export must parse");
        assert!(chrome
            .contains("\"sciotoMeta\":{\"dropped\":[0,0],\"final_clock_ns\":[60,7],\"clock\":\"wall\"}"));
        // Virtual-time traces must NOT carry the marker: their exports are
        // pinned byte-identical across schema versions.
        let vt = synthetic_trace();
        assert!(!vt.to_jsonl().contains("\"clock\""));
        assert!(!vt.to_chrome_json().contains("\"clock\""));
    }

    #[test]
    fn rings_take_concurrent_single_writer_emission() {
        // One writer thread per rank, all emitting simultaneously — the
        // exact access pattern of a concurrent-mode run against the
        // lock-free RankCell rings. Nothing may be lost or torn.
        let sink = TraceSink::new(&TraceConfig::enabled().with_capacity(1024), 4);
        std::thread::scope(|s| {
            for r in 0..4usize {
                let sink = &sink;
                s.spawn(move || {
                    for t in 0..100u64 {
                        sink.emit(r, t, || TraceEvent::QueueDepth {
                            local: r as u32,
                            shared: t as u32,
                        });
                        sink.gauge(r, "g", t);
                    }
                });
            }
        });
        let t = sink.finish().unwrap();
        for r in 0..4 {
            assert_eq!(t.events[r].len(), 100);
            assert!(t.events[r].windows(2).all(|w| w[0].t_ns < w[1].t_ns));
            assert!(t.events[r]
                .iter()
                .all(|e| matches!(e.event, TraceEvent::QueueDepth { local, .. } if local == r as u32)));
            assert_eq!(t.gauges[r]["g"].samples, 100);
        }
        assert_eq!(t.dropped, vec![0; 4]);
    }

    #[test]
    fn names_are_distinct_and_in_name_order() {
        // The analyzer's per-kind census prints in index order.
        assert!(TraceEvent::NAMES.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(TraceEvent::Block.name(), "Block");
        assert_eq!(TraceEvent::Unblock { target: 0 }.kind(), TraceEvent::NAMES.len() - 1);
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "\"a\\u00ff\\n\"",
            "{\"a\":[1,2,{\"b\":true}],\"c\":null}",
            " [ 1 , 2 ] ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?} should parse: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{a:1}",
            "01",
            "1.",
            "\"\\x\"",
            "\"unterminated",
            "tru",
            "[] []",
            "{\"a\":1,}",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
