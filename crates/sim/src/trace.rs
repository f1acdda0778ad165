//! Tracing and metrics: per-rank ring buffers of typed events stamped
//! with the emitting rank's clock, log2-bucketed duration histograms,
//! gauges, and exporters (Chrome `trace_event` JSON, flat JSONL, human
//! summary).
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
use std::fmt::Write as _;

/// Number of log2 buckets in a [`VtHistogram`]: bucket 0 holds the value
/// 0, bucket `i >= 1` holds values in `[2^(i-1), 2^i - 1]`.
pub const HIST_BUCKETS: usize = 65;

/// Tracing configuration carried by [`crate::MachineConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When false the machine runs with
    /// [`TraceSink::Disabled`] and pays one branch per emission site.
    pub enabled: bool,
    /// Capacity of each per-rank event ring. When a ring fills, the oldest
    /// events are overwritten and counted in [`Trace::dropped`].
    pub ring_capacity: usize,
    /// Events staged per rank before publication into its ring. Staged
    /// events publish when the batch fills, at kernel block/finish
    /// boundaries, and at [`TraceSink::finish`]; `<= 1` publishes every
    /// event immediately (the historical behaviour). Batching never
    /// changes trace *content* — staged events drain in emission order
    /// through the same ring, so overflow drops are counted identically —
    /// it only amortizes the per-event publication cost on the
    /// concurrent-mode hot path.
    pub batch: usize,
}

/// Default per-rank staging batch for [`TraceConfig::enabled`].
pub const DEFAULT_TRACE_BATCH: usize = 64;

impl TraceConfig {
    /// Tracing off (the default).
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            ring_capacity: 0,
            batch: 0,
        }
    }

    /// Tracing on with the default ring capacity (65536 events per rank,
    /// ~1.5 MiB per rank) and batched publication
    /// ([`DEFAULT_TRACE_BATCH`] events).
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ring_capacity: 1 << 16,
            batch: DEFAULT_TRACE_BATCH,
        }
    }

    /// Replace the per-rank ring capacity.
    pub fn with_capacity(mut self, cap: usize) -> Self {
        self.ring_capacity = cap;
        self
    }

    /// Replace the staging batch size (`<= 1` disables batching: every
    /// event publishes into the ring immediately).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// Direction of a termination-detection wave event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
    /// split-queue owner touching its own queue through
    /// `with_local_range`. Target is the emitting rank itself.
    LocalAccess {
        /// Global-memory segment id (`Gmem::id`).
        seg: u32,
        /// Byte offset of the access within this rank's segment slice.
        offset: u64,
        /// Bytes touched.
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
    /// Stable event name used by all exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::TaskExecBegin { .. } => "TaskExecBegin",
            TraceEvent::TaskExecEnd { .. } => "TaskExecEnd",
            TraceEvent::StealAttempt { .. } => "StealAttempt",
            TraceEvent::LockWait { .. } => "LockWait",
            TraceEvent::BarrierWait { .. } => "BarrierWait",
            TraceEvent::TdProgress { .. } => "TdProgress",
            TraceEvent::SplitRelease { .. } => "SplitRelease",
            TraceEvent::SplitReclaim { .. } => "SplitReclaim",
            TraceEvent::TdWave { .. } => "TdWave",
            TraceEvent::QueueDepth { .. } => "QueueDepth",
            TraceEvent::Block => "Block",
            TraceEvent::Unblock { .. } => "Unblock",
            TraceEvent::MsgSend { .. } => "MsgSend",
            TraceEvent::MsgRecv { .. } => "MsgRecv",
            TraceEvent::RemoteOp { .. } => "RemoteOp",
            TraceEvent::LocalAccess { .. } => "LocalAccess",
            TraceEvent::LockAcq { .. } => "LockAcq",
            TraceEvent::LockRel { .. } => "LockRel",
        }
    }

    /// Append the event's payload as JSON object members between `open`
    /// and `close`, e.g. `"victim":3,"got":2`. Nothing at all (no `open`,
    /// no `close`) for payload-free events.
    fn write_args(&self, out: &mut Text, open: &str, close: &str) {
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

/// Export text under construction: literal fragments and decimal integers
/// appended straight to one buffer, no `core::fmt` per event. Bytes rather
/// than a `String` so digits append without a UTF-8 check per number;
/// [`Text::finish`] validates the whole buffer once.
struct Text(Vec<u8>);

impl Text {
    fn lit(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
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
        self.0.extend_from_slice(&buf[i..]);
    }

    /// Nanoseconds as the fixed-decimal microseconds Chrome's `ts` and
    /// `dur` fields expect. Integer arithmetic only, so output is
    /// deterministic (no float formatting).
    fn ts_us(&mut self, t_ns: u64) {
        self.num(t_ns / 1_000);
        let frac = (t_ns % 1_000) as u32;
        self.0.extend_from_slice(&[
            b'.',
            b'0' + (frac / 100) as u8,
            b'0' + (frac / 10 % 10) as u8,
            b'0' + (frac % 10) as u8,
        ]);
    }

    fn finish(self) -> String {
        String::from_utf8(self.0).expect("str fragments and ASCII digits")
    }
}

/// A value [`members!`] can append as JSON.
trait Member {
    fn append(self, out: &mut Text);
}

impl Member for u64 {
    fn append(self, out: &mut Text) {
        out.num(self);
    }
}

impl Member for u32 {
    fn append(self, out: &mut Text) {
        out.num(self.into());
    }
}

impl Member for bool {
    fn append(self, out: &mut Text) {
        out.lit(if self { "true" } else { "false" });
    }
}

/// Quoted, never escaped: event, direction and kind names come from fixed
/// sets, metric names from literals at the emission sites or from a file
/// whose reader refuses escapes.
impl Member for &str {
    fn append(self, out: &mut Text) {
        out.lit("\"");
        out.lit(self);
        out.lit("\"");
    }
}

impl Member for &[u64] {
    fn append(self, out: &mut Text) {
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

/// Fixed-capacity ring: overwrites the oldest event when full.
#[derive(Debug, Default)]
struct RankRing {
    cap: usize,
    buf: Vec<StampedEvent>,
    /// Index of the oldest event once the ring has wrapped.
    next: usize,
    dropped: u64,
}

impl RankRing {
    fn with_capacity(cap: usize) -> Self {
        RankRing {
            cap,
            buf: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, e: StampedEvent) {
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

    /// Move a whole staged batch in. Content-identical to pushing each
    /// event in order; the common case (ring not yet wrapped, room for
    /// the lot) is one bulk append instead of a capacity check per event.
    fn push_batch(&mut self, staged: &mut Vec<StampedEvent>) {
        if self.next == 0 && self.buf.len() + staged.len() <= self.cap {
            self.buf.append(staged);
        } else {
            for e in staged.drain(..) {
                self.push(e);
            }
        }
    }

    /// Take the events in emission order (oldest surviving event first),
    /// leaving the ring empty. An unwrapped ring — the common case — is
    /// one buffer move, not a copy; this runs inside the measured span of
    /// the wall-clock overhead gate.
    fn take_chronological(&mut self) -> Vec<StampedEvent> {
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

/// Log2-bucketed histogram of virtual-time durations (nanoseconds).
///
/// Bucketing is exact and integer-only, so merged histograms and their
/// summaries are deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VtHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for VtHistogram {
    fn default() -> Self {
        VtHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl VtHistogram {
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Upper bound of bucket `i` (inclusive).
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &VtHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile, exact to
    /// within one power of two.
    ///
    /// Edge cases are defined (not panics): an empty histogram returns 0
    /// for every `q`; `q` is clamped to `[0, 1]` (so `q < 0`, `q > 1` and
    /// NaN behave like 0.0 / 1.0 / 0.0 respectively); `q == 0.0` returns
    /// the bound of the first non-empty bucket (the minimum's bucket);
    /// `q == 1.0` returns the exact maximum sample.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // NaN fails both comparisons below and clamps to 0.0.
        let q = if q >= 1.0 {
            return self.max;
        } else if q > 0.0 {
            q
        } else {
            0.0
        };
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Per-bucket counts (index = log2 bucket, see [`HIST_BUCKETS`]).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Non-empty buckets as `(index, count)` pairs flattened into one
    /// array — the compact form the JSONL exporter writes.
    pub fn sparse_buckets(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                out.push(i as u64);
                out.push(c);
            }
        }
        out
    }

    /// Rebuild a histogram from its serialized parts: the sparse
    /// `(index, count)` pair array of [`VtHistogram::sparse_buckets`] plus
    /// the summary fields. Used by the JSONL re-parser; rejects bucket
    /// indices out of range or a ragged pair array.
    pub fn from_parts(sparse: &[u64], count: u64, sum: u64, min: u64, max: u64) -> Option<Self> {
        if sparse.len() % 2 != 0 {
            return None;
        }
        let mut h = VtHistogram {
            buckets: [0; HIST_BUCKETS],
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max,
        };
        for pair in sparse.chunks_exact(2) {
            let i = usize::try_from(pair[0]).ok().filter(|&i| i < HIST_BUCKETS)?;
            h.buckets[i] = pair[1];
        }
        Some(h)
    }
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
/// thread — every `Kernel::emit`/`hist`/`gauge` call passes the caller's
/// own rank. Reads happen only in [`TraceSink::finish`], after
/// `Machine::run` has joined every rank thread (the join is the
/// happens-before edge that publishes the writes). In concurrent mode
/// this keeps trace emission lock-free on the measured path; in
/// virtual-time mode at most one rank runs at a time anyway.
struct RankCell<T>(UnsafeCell<T>);

// SAFETY: see the single-writer contract above — distinct threads never
// touch the same cell concurrently, and the final reads are ordered
// after all writes by thread join.
unsafe impl<T: Send> Sync for RankCell<T> {}

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

/// Live per-rank trace storage. Each rank's ring/registries are touched
/// only by that rank's thread during a run ([`RankCell`]'s single-writer
/// contract), so emission takes no lock — a deliberate property for
/// concurrent mode, where a shared lock would perturb the timing the
/// trace is supposed to measure.
#[derive(Debug)]
pub struct TraceBuffers {
    rings: Vec<RankCell<RankRing>>,
    /// Per-rank staging buffers (empty when `batch <= 1`): events wait
    /// here and publish into the ring in batches, so the common emission
    /// path is a plain `Vec::push`.
    staged: Vec<RankCell<Vec<StampedEvent>>>,
    batch: usize,
    /// Metric registries are small (a handful of `&'static str` names per
    /// rank), so a linear Vec with a pointer-equality fast path beats a
    /// BTreeMap lookup per sample; [`TraceSink::finish`] converts to the
    /// sorted map form the exporters expect.
    hists: Vec<RankCell<Vec<(&'static str, VtHistogram)>>>,
    gauges: Vec<RankCell<Vec<(&'static str, Gauge)>>>,
}

impl TraceBuffers {
    /// Drain `rank`'s staged events, in emission order, into its ring.
    fn publish(&self, rank: usize) {
        self.staged[rank].with_mut(|s| {
            if s.is_empty() {
                return;
            }
            self.rings[rank].with_mut(|r| r.push_batch(s));
        });
    }
}

/// Find-or-insert `name` in a linear metric registry. Metric names are
/// `&'static str` constants, so repeat samples from the same call site
/// hit the pointer comparison; the content fallback covers equal names
/// spelled as different constants.
fn reg_entry<'a, T: Default>(reg: &'a mut Vec<(&'static str, T)>, name: &'static str) -> &'a mut T {
    let pos = reg.iter().position(|&(k, _)| {
        (k.as_ptr() == name.as_ptr() && k.len() == name.len()) || k == name
    });
    match pos {
        Some(i) => &mut reg[i].1,
        None => {
            reg.push((name, T::default()));
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
        let stage_cap = if cfg.batch > 1 { cfg.batch } else { 0 };
        TraceSink::Enabled(TraceBuffers {
            rings: (0..ranks)
                .map(|_| RankCell::new(RankRing::with_capacity(cfg.ring_capacity)))
                .collect(),
            staged: (0..ranks)
                .map(|_| RankCell::new(Vec::with_capacity(stage_cap)))
                .collect(),
            batch: cfg.batch,
            hists: (0..ranks).map(|_| RankCell::new(Vec::new())).collect(),
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
    /// ([`RankCell`]'s single-writer contract) — every kernel emission
    /// path passes the caller's own rank.
    #[inline]
    pub fn emit(&self, rank: usize, t_ns: u64, make: impl FnOnce() -> TraceEvent) {
        if let TraceSink::Enabled(b) = self {
            let e = StampedEvent {
                t_ns,
                event: make(),
            };
            if b.batch <= 1 {
                b.rings[rank].with_mut(|r| r.push(e));
            } else {
                let full = b.staged[rank].with_mut(|s| {
                    s.push(e);
                    s.len() >= b.batch
                });
                if full {
                    b.publish(rank);
                }
            }
        }
    }

    /// Publish `rank`'s staged events into its ring (no-op when disabled,
    /// unbatched, or nothing is staged). Called by the kernel at park and
    /// finish boundaries; own-thread only, like [`TraceSink::emit`].
    #[inline]
    pub fn flush(&self, rank: usize) {
        if let TraceSink::Enabled(b) = self {
            if b.batch > 1 {
                b.publish(rank);
            }
        }
    }

    /// Record a histogram sample for `rank` under `name` (own-thread only,
    /// like [`TraceSink::emit`]).
    #[inline]
    pub fn hist(&self, rank: usize, name: &'static str, v: u64) {
        if let TraceSink::Enabled(b) = self {
            b.hists[rank].with_mut(|h| reg_entry(h, name).record(v));
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
        for (rank, ring) in b.rings.iter().enumerate() {
            // Any still-staged events (a rank whose last boundary wasn't a
            // park) publish here, before the ring is drained. Mutating the
            // cells is safe: finish() runs after every rank thread joined.
            b.publish(rank);
            ring.with_mut(|r| {
                events.push(r.take_chronological());
                dropped.push(r.dropped);
            });
        }
        Some(Trace {
            events,
            dropped,
            final_clock_ns: Vec::new(),
            wall_clock: false,
            // The linear live registries convert to sorted maps here, so
            // exports keep their name-ordered, byte-stable form.
            hists: b
                .hists
                .iter()
                .map(|h| {
                    h.read()
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect()
                })
                .collect(),
            gauges: b
                .gauges
                .iter()
                .map(|g| g.read().iter().map(|&(k, v)| (k.to_string(), v)).collect())
                .collect(),
        })
    }
}

/// A frozen trace of one completed run: per-rank event timelines plus the
/// metric registries. Attached to [`crate::Report::trace`] when the
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
    /// Per-rank virtual-time histograms, keyed by metric name.
    pub hists: Vec<BTreeMap<String, VtHistogram>>,
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

    /// Histogram `name` merged across all ranks (None if never recorded).
    pub fn merged_hist(&self, name: &str) -> Option<VtHistogram> {
        let mut out: Option<VtHistogram> = None;
        for per_rank in &self.hists {
            if let Some(h) = per_rank.get(name) {
                out.get_or_insert_with(VtHistogram::default).merge(h);
            }
        }
        out
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
    fn write_meta(&self, out: &mut Text) {
        members!(out, "dropped": &self.dropped[..], "final_clock_ns": &self.final_clock_ns[..]);
        if self.wall_clock {
            out.lit(",\"clock\":\"wall\"");
        }
    }

    /// Flat JSONL dump: a meta header line (`{"meta":...}` with rank
    /// count, per-rank drop counts and final clocks), one line per
    /// histogram and gauge registry entry (rank-major, name order), then
    /// one JSON object per event, rank-major then chronological,
    /// timestamps in exact virtual nanoseconds. The header and metric
    /// lines make a JSONL file self-contained for re-analysis
    /// (`scioto-analyze` reads all of it back, distributions included).
    pub fn to_jsonl(&self) -> String {
        let metrics: usize = self.hists.iter().map(BTreeMap::len).sum::<usize>()
            + self.gauges.iter().map(BTreeMap::len).sum::<usize>();
        // An event line of a UTS or Table 1 recording averages 91 bytes.
        let mut text = Text(Vec::with_capacity(
            128 + 42 * self.nranks() + 256 * metrics + 96 * self.total_events(),
        ));
        let out = &mut text;
        out.lit("{");
        members!(out, "meta": "scioto-trace", "version": 3u64, "ranks": self.nranks() as u64);
        out.lit(",");
        self.write_meta(out);
        out.lit("}\n");
        for (rank, per_rank) in self.hists.iter().enumerate() {
            for (name, h) in per_rank {
                out.lit("{");
                members!(
                    out, "hist": &name[..], "rank": rank as u64, "count": h.count(),
                    "sum": h.sum(), "min": h.min(), "max": h.max(),
                    "buckets": &h.sparse_buckets()[..]
                );
                out.lit("}\n");
            }
        }
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
        for (rank, events) in self.events.iter().enumerate() {
            for e in events {
                out.lit("{");
                members!(out, "rank": rank as u64, "t": e.t_ns, "ev": e.event.name());
                e.event.write_args(out, ",", "");
                out.lit("}\n");
            }
        }
        text.finish()
    }

    /// Human-readable summary: per-rank event totals, global per-kind
    /// counts, histogram and gauge digests.
    pub fn summary(&self) -> String {
        let n = self.nranks();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== trace summary: {n} ranks, {} events, {} dropped ==",
            self.total_events(),
            self.dropped.iter().sum::<u64>()
        );
        if self.wall_clock {
            let _ = writeln!(
                out,
                "clock: wall (concurrent mode — timestamps are real ns, \
                 not reproducible across runs)"
            );
        }
        let _ = writeln!(out, "{:>6}  {:>10}  {:>10}", "rank", "events", "dropped");
        for r in 0..n {
            let _ = writeln!(out, "{r:>6}  {:>10}  {:>10}", self.events[r].len(), self.dropped[r]);
        }
        let total_dropped: u64 = self.dropped.iter().sum();
        if total_dropped > 0 {
            let ranks_hit = self.dropped.iter().filter(|&&d| d > 0).count();
            let _ = writeln!(
                out,
                "WARNING: ring overflow dropped {total_dropped} event(s) on \
                 {ranks_hit} rank(s); timelines are truncated — rerun with a \
                 larger ring capacity (TraceConfig::with_capacity / --trace-ring)"
            );
        }
        let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
        for events in &self.events {
            for e in events {
                *kinds.entry(e.event.name()).or_default() += 1;
            }
        }
        let _ = writeln!(out, "events by kind:");
        for (k, c) in &kinds {
            let _ = writeln!(out, "  {k:<16} {c}");
        }
        let mut hist_names: Vec<&str> = Vec::new();
        for per_rank in &self.hists {
            for k in per_rank.keys() {
                if !hist_names.contains(&k.as_str()) {
                    hist_names.push(k);
                }
            }
        }
        hist_names.sort_unstable();
        if !hist_names.is_empty() {
            let _ = writeln!(out, "histograms (virtual ns, merged across ranks):");
            for name in hist_names {
                if let Some(h) = self.merged_hist(name) {
                    let _ = writeln!(
                        out,
                        "  {name:<16} count={} mean={:.0} p50<={} max={}",
                        h.count(),
                        h.mean(),
                        h.quantile_upper_bound(0.5),
                        h.max()
                    );
                }
            }
        }
        let mut gauge_names: Vec<&str> = Vec::new();
        for per_rank in &self.gauges {
            for k in per_rank.keys() {
                if !gauge_names.contains(&k.as_str()) {
                    gauge_names.push(k);
                }
            }
        }
        gauge_names.sort_unstable();
        if !gauge_names.is_empty() {
            let _ = writeln!(out, "gauges (mean/max over all ranks' samples):");
            for name in gauge_names {
                let mut samples = 0u64;
                let mut sum = 0u64;
                let mut max = 0u64;
                for per_rank in &self.gauges {
                    if let Some(g) = per_rank.get(name) {
                        samples += g.samples;
                        sum = sum.saturating_add(g.sum);
                        max = max.max(g.max);
                    }
                }
                let mean = if samples == 0 {
                    0.0
                } else {
                    sum as f64 / samples as f64
                };
                let _ = writeln!(out, "  {name:<16} samples={samples} mean={mean:.2} max={max}");
            }
        }
        out
    }
}

fn chrome_event(out: &mut Text, rank: u64, e: &StampedEvent) {
    out.lit("{\"name\":\"");
    let mut dur = None;
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
        TraceEvent::StealAttempt { dur_ns, .. }
        | TraceEvent::LockWait { dur_ns, .. }
        | TraceEvent::BarrierWait { dur_ns, .. }
        | TraceEvent::TdProgress { dur_ns } => {
            // Stamped at completion: render as a complete (X) event whose
            // ts is the span start.
            dur = Some(dur_ns);
            out.lit(e.event.name());
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
/// hermetic — no serde); used by tests and the `trace_check` tool to
/// prove exported traces parse.
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
        sink.hist(0, "task_exec_ns", 40);
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
        sink.hist(0, "h", 1);
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
    fn histogram_buckets_powers_of_two() {
        let mut h = VtHistogram::default();
        for v in [0, 1, 2, 3, 4, 1_000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.buckets()[0], 1); // 0
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2,3
        assert_eq!(h.buckets()[3], 1); // 4
        assert_eq!(h.buckets()[10], 1); // 1000 in [512,1023]
        assert_eq!(h.buckets()[64], 1); // u64::MAX
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_quantile_and_merge() {
        let mut a = VtHistogram::default();
        let mut b = VtHistogram::default();
        for _ in 0..9 {
            a.record(10); // bucket [8,15]
        }
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 10);
        assert_eq!(a.quantile_upper_bound(0.5), 15);
        assert_eq!(a.quantile_upper_bound(1.0), 1_000_000);
        let empty = VtHistogram::default();
        assert_eq!(empty.quantile_upper_bound(0.5), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.min(), 0);
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
        assert_eq!(
            jsonl.lines().count(),
            8,
            "meta header + 1 hist + 1 gauge + 5 events"
        );
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
        // Metric registries ride along as their own lines.
        assert!(jsonl.contains(
            "{\"hist\":\"task_exec_ns\",\"rank\":0,\"count\":1,\"sum\":40,\
             \"min\":40,\"max\":40,\"buckets\":[6,1]}"
        ));
        assert!(jsonl.contains(
            "{\"gauge\":\"queue_local\",\"rank\":1,\"samples\":1,\"sum\":3,\
             \"max\":3,\"last\":3}"
        ));
    }

    #[test]
    fn histogram_from_parts_round_trips() {
        let mut h = VtHistogram::default();
        for v in [0, 7, 7, 1_000, u64::MAX] {
            h.record(v);
        }
        let back = VtHistogram::from_parts(
            &h.sparse_buckets(),
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
        )
        .expect("round trip");
        assert_eq!(back.buckets(), h.buckets());
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum(), h.sum());
        assert_eq!(back.min(), h.min());
        assert_eq!(back.max(), h.max());
        assert_eq!(back.quantile_upper_bound(0.5), h.quantile_upper_bound(0.5));
        // Ragged pair arrays and out-of-range indices are rejected.
        assert!(VtHistogram::from_parts(&[1], 1, 1, 1, 1).is_none());
        assert!(VtHistogram::from_parts(&[65, 1], 1, 1, 1, 1).is_none());
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
    fn summary_warns_on_ring_overflow() {
        let sink = TraceSink::new(&TraceConfig::enabled().with_capacity(2), 1);
        for t in 0..5u64 {
            sink.emit(0, t, || TraceEvent::Block);
        }
        let trace = sink.finish().unwrap();
        assert_eq!(trace.dropped, vec![3]);
        let s = trace.summary();
        assert!(s.contains("WARNING: ring overflow dropped 3 event(s) on 1 rank(s)"));
        // A clean trace must not warn.
        assert!(!synthetic_trace().summary().contains("WARNING"));
    }

    #[test]
    fn batched_publication_is_content_identical_to_unbatched() {
        // Same event stream staged through a pending batch vs. published
        // one-by-one: identical events, order, and JSONL bytes.
        let emit_all = |sink: &TraceSink| {
            for t in 0..10u64 {
                sink.emit(0, t, || TraceEvent::TdProgress { dur_ns: t });
                sink.emit(1, t * 2, || TraceEvent::Block);
            }
        };
        let unbatched = TraceSink::new(&TraceConfig::enabled().with_batch(1), 2);
        emit_all(&unbatched);
        let batched = TraceSink::new(&TraceConfig::enabled().with_batch(4), 2);
        emit_all(&batched);
        let (a, b) = (unbatched.finish().unwrap(), batched.finish().unwrap());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.dropped, b.dropped);
    }

    #[test]
    fn ring_overflow_during_pending_batch_counts_drops_identically() {
        // Capacity 2, seven events, batch 4: the flushes push through the
        // same ring as the unbatched path, so the oldest events fall out
        // and the drop counter matches exactly.
        let run = |batch: usize| {
            let sink = TraceSink::new(
                &TraceConfig::enabled().with_capacity(2).with_batch(batch),
                1,
            );
            for t in 0..7u64 {
                sink.emit(0, t, || TraceEvent::Block);
            }
            sink.finish().unwrap()
        };
        let (unbatched, batched) = (run(1), run(4));
        assert_eq!(unbatched.dropped, vec![5]);
        assert_eq!(batched.dropped, unbatched.dropped);
        // Survivors are the newest events on every surface.
        assert_eq!(unbatched.to_jsonl(), batched.to_jsonl());
        assert!(batched
            .summary()
            .contains("WARNING: ring overflow dropped 5 event(s) on 1 rank(s)"));
    }

    #[test]
    fn finish_flushes_a_partial_batch_in_order() {
        // 3 events staged against batch 64: nothing reaches the ring until
        // finish(), which must drain the stage in emission order.
        let sink = TraceSink::new(&TraceConfig::enabled().with_batch(64), 1);
        for t in [5u64, 9, 11] {
            sink.emit(0, t, || TraceEvent::TdProgress { dur_ns: t });
        }
        let trace = sink.finish().unwrap();
        let stamps: Vec<u64> = trace.events_for(0).iter().map(|e| e.t_ns).collect();
        assert_eq!(stamps, vec![5, 9, 11]);
        assert_eq!(trace.dropped, vec![0]);
    }

    #[test]
    fn explicit_flush_publishes_the_stage() {
        let sink = TraceSink::new(&TraceConfig::enabled().with_batch(64), 2);
        sink.emit(0, 3, || TraceEvent::Block);
        sink.flush(0);
        sink.emit(0, 4, || TraceEvent::Block);
        // Rank 1 never flushes explicitly; finish() covers it.
        sink.emit(1, 7, || TraceEvent::Block);
        let trace = sink.finish().unwrap();
        assert_eq!(trace.events_for(0).len(), 2);
        assert_eq!(trace.events_for(1).len(), 1);
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
        assert!(t.summary().contains("clock: wall"));
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
                        sink.hist(r, "h", t);
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
            assert_eq!(t.hists[r]["h"].count(), 100);
            assert_eq!(t.gauges[r]["g"].samples, 100);
        }
        assert_eq!(t.dropped, vec![0; 4]);
    }

    #[test]
    fn quantile_edge_cases_are_defined() {
        let empty = VtHistogram::default();
        for q in [f64::NAN, -1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.quantile_upper_bound(q), 0);
        }
        let mut h = VtHistogram::default();
        h.record(10); // bucket [8,15]
        h.record(100); // bucket [64,127]
        h.record(1000); // bucket [512,1023]
        // q=0 lands in the minimum's bucket; q=1 is the exact max.
        assert_eq!(h.quantile_upper_bound(0.0), 15);
        assert_eq!(h.quantile_upper_bound(1.0), 1000);
        // Out-of-range and NaN clamp instead of panicking or overflowing.
        assert_eq!(h.quantile_upper_bound(-0.5), 15);
        assert_eq!(h.quantile_upper_bound(7.0), 1000);
        assert_eq!(h.quantile_upper_bound(f64::NAN), 15);
        assert_eq!(h.quantile_upper_bound(0.5), 127);
        // Single-sample histogram: every q maps to that sample's bucket.
        let mut one = VtHistogram::default();
        one.record(0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(one.quantile_upper_bound(q), 0);
        }
    }

    #[test]
    fn summary_names_metrics_and_kinds() {
        let s = synthetic_trace().summary();
        assert!(s.contains("trace summary: 2 ranks"));
        assert!(s.contains("StealAttempt"));
        assert!(s.contains("task_exec_ns"));
        assert!(s.contains("queue_local"));
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
