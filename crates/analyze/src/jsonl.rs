//! Re-parse a JSONL trace export (`Trace::to_jsonl`) back into a
//! [`Trace`], so analysis can run on files as well as in-memory traces.
//!
//! The reader is a purpose-built flat-JSON scanner (the build is
//! hermetic — no serde): each line is one object whose values are
//! unsigned integers, strings, booleans or arrays of unsigned integers,
//! which covers everything the exporter emits. Events, gauges, drop
//! counts and final clocks all round-trip exactly: re-exporting a parsed
//! trace is byte-identical. The `{"hist":…}` lines earlier builds wrote
//! are skipped: the summary derives those digests from the events.
//!
//! One pass over the bytes: a line's `"key":value` pairs are scanned
//! once, each key the exporter knows lands in its fixed `Line` slot
//! (any order; unknown keys are skipped; the first occurrence of a
//! repeated key wins), and the event is built from constant slot
//! indices — no per-line allocation and no string-keyed lookup.
//!
//! After the header the text is cut at newlines into parts of about equal
//! length, one per core and at least a MiB each
//! ([`scioto_det::par::parts_for`]), and each part is read on a thread of
//! its own. The parts' events and gauges are appended in text order and
//! the first error in text order is the answer, its line number counted
//! from the top of the file: the outcome does not depend on the cut.

use std::collections::BTreeMap;

use scioto_det::par::{in_parts, parts_for};
use scioto_det::runs::word_range;
use scioto_sim::{Gauge, RemoteOpKind, StampedEvent, Trace, TraceEvent, WaveDir};

/// Newest `"version"` this reader understands (what `to_jsonl` writes).
/// Version 4 differs from 3 in meaning only: its `LocalAccess` lines are
/// window summaries, which every consumer reads like single accesses.
const VERSION: u64 = 4;

/// The first eight bytes of `key`, little-endian, zero-padded.
const fn pack(key: &[u8]) -> u64 {
    let mut w = 0;
    let mut i = 0;
    while i < key.len() && i < 8 {
        w |= (key[i] as u64) << (8 * i);
        i += 1;
    }
    w
}

/// Declare the keys the exporter writes: a slot index constant each, in
/// declaration order, `UNKNOWN` after the last for every other key (a slot
/// written like any other and read by nobody), and the key -> slot map.
macro_rules! slots {
    ($($name:ident $key:literal)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum Slot { $($name,)* UNKNOWN }
        $(const $name: usize = Slot::$name as usize;)*
        const UNKNOWN: usize = Slot::UNKNOWN as usize;

        /// The slot of `key`, whose first eight bytes are `packed`.
        #[inline]
        fn slot_of(key: &[u8], packed: u64) -> usize {
            $({
                const PACKED: u64 = pack($key.as_bytes());
                if packed == PACKED && (key.len() <= 8 || key == $key.as_bytes()) {
                    return if key.len() == $key.len() { $name } else { UNKNOWN };
                }
            })*
            UNKNOWN
        }
    };
}

// The two array-valued keys come first: their slot doubles as the index
// of the reused buffer the array is parsed into.
slots! {
    DROPPED "dropped" FINAL_CLOCK_NS "final_clock_ns"
    META "meta" VERSION_KEY "version" RANKS "ranks" CLOCK "clock" HIST "hist"
    GAUGE "gauge" SAMPLES "samples" SUM "sum" MAX "max" LAST "last"
    RANK "rank" T "t" EV "ev"
    CALLBACK "callback" CREATOR "creator" VICTIM "victim" GOT "got" DUR "dur"
    TARGET "target" EPOCH "epoch" MOVED "moved" WAVE "wave" DIR "dir" BLACK "black"
    LOCAL "local" SHARED "shared" DST "dst" BYTES "bytes" SEQ "seq" SRC "src"
    KIND "kind" SEG "seg" OFF "off" ATOMIC "atomic" WRITE "write" SET "set" IDX "idx"
}

/// Buffers arrays are parsed into: one per array-valued key, plus one for
/// arrays nobody reads (unknown or repeated keys).
const ARRAYS: usize = FINAL_CLOCK_NS + 2;

/// A syntax error: what was wrong, and at which byte of the line. Cheap to
/// make and drop — [`Lines::next`] retries a line it could not take whole.
struct Syntax(&'static str, usize);

impl Syntax {
    #[cold]
    fn describe(self) -> String {
        format!("{} at byte {}", self.0, self.1)
    }
}

/// Indices into [`Line::typed`].
const NUM: usize = 0;
const STR: usize = 1;
const BOOL: usize = 2;
const ARR: usize = 3;

/// One scanned line: which slots are present, holding what type of value,
/// and the values. Reset by clearing the masks; strings borrow from the
/// text, arrays land in buffers that are reused from line to line.
struct Line<'a> {
    /// Slots whose key occurred (its first occurrence decides the value).
    seen: u64,
    /// Of those, per value type, the slots holding one of that type.
    typed: [u64; 4],
    /// Integer and boolean (0 / 1) values.
    num: [u64; UNKNOWN + 1],
    text: [&'a str; UNKNOWN + 1],
    arrays: [Vec<u64>; ARRAYS],
}

impl<'a> Line<'a> {
    fn new() -> Self {
        Line {
            seen: 0,
            typed: [0; 4],
            num: [0; UNKNOWN + 1],
            text: [""; UNKNOWN + 1],
            arrays: Default::default(),
        }
    }

    #[inline]
    fn num(&self, slot: usize) -> Option<u64> {
        (self.typed[NUM] >> slot & 1 == 1).then(|| self.num[slot])
    }

    /// A 32-bit field: a larger value is malformed, not truncated.
    #[inline]
    fn n32(&self, slot: usize) -> Option<u32> {
        u32::try_from(self.num(slot)?).ok()
    }

    /// An access's offset: one whose last byte lies past `u64::MAX` is
    /// malformed, not wrapped.
    #[inline]
    fn offset(&self) -> Option<u64> {
        let offset = self.num(OFF)?;
        word_range(offset, self.n32(BYTES)?).map(|_| offset)
    }

    #[inline]
    fn str(&self, slot: usize) -> Option<&'a str> {
        (self.typed[STR] >> slot & 1 == 1).then(|| self.text[slot])
    }

    #[inline]
    fn bool(&self, slot: usize) -> Option<bool> {
        (self.typed[BOOL] >> slot & 1 == 1).then(|| self.num[slot] != 0)
    }

    #[inline]
    fn arr(&self, slot: usize) -> Option<&[u64]> {
        (self.typed[ARR] >> slot & 1 == 1).then(|| &self.arrays[slot][..])
    }

    /// Scan the flat JSON object at the front of `line` (`{"k":v,...}` with
    /// u64 / string / bool / u64-array values, no whitespace, no escapes,
    /// never crossing a newline) into the slots; returns its length.
    fn scan(&mut self, line: &'a str) -> Result<usize, Syntax> {
        (self.seen, self.typed) = (0, [0; 4]);
        let b = line.as_bytes();
        if b.first() != Some(&b'{') {
            return Err(Syntax("expected '{'", 0));
        }
        if b.get(1) == Some(&b'}') {
            return Ok(2);
        }
        let mut i = 1;
        loop {
            if b.get(i) != Some(&b'"') {
                return Err(Syntax("expected '\"'", i));
            }
            let start = i + 1;
            i = string_end(b, start)?;
            let packed = match b.get(start..start + 8) {
                Some(word) if i - start < 8 => {
                    let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
                    word & !(!0 << (8 * (i - start)))
                }
                _ => pack(&b[start..i]),
            };
            let slot = slot_of(&b[start..i], packed);
            if b.get(i + 1) != Some(&b':') {
                return Err(Syntax("expected ':'", i + 1));
            }
            i += 2;
            // First occurrence wins: a repeated key's value is checked for
            // syntax like any other and then dropped.
            let bit = if self.seen >> slot & 1 == 0 { 1u64 << slot } else { 0 };
            self.seen |= bit;
            let (kind, v);
            match b.get(i) {
                Some(b'0'..=b'9') => (kind, (v, i)) = (NUM, number(b, i)?),
                Some(b'"') => {
                    let end = string_end(b, i + 1)?;
                    if bit != 0 {
                        self.text[slot] = &line[i + 1..end];
                    }
                    (kind, v, i) = (STR, 0, end + 1);
                }
                Some(b't') if b[i..].starts_with(b"true") => (kind, v, i) = (BOOL, 1, i + 4),
                Some(b'f') if b[i..].starts_with(b"false") => (kind, v, i) = (BOOL, 0, i + 5),
                Some(b'[') => {
                    let keep = if bit != 0 && slot <= FINAL_CLOCK_NS { slot } else { ARRAYS - 1 };
                    let buf = &mut self.arrays[keep];
                    buf.clear();
                    i += 1;
                    while b.get(i) != Some(&b']') || !buf.is_empty() {
                        let n;
                        (n, i) = number(b, i)?;
                        buf.push(n);
                        match b.get(i) {
                            Some(b',') => i += 1,
                            Some(b']') => break,
                            _ => return Err(Syntax("expected ',' or ']'", i)),
                        }
                    }
                    (kind, v, i) = (ARR, 0, i + 1);
                }
                _ => return Err(Syntax("expected a value", i)),
            }
            if bit != 0 {
                self.typed[kind] |= bit;
                self.num[slot] = v;
            }
            match b.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => return Ok(i + 1),
                _ => return Err(Syntax("expected ',' or '}'", i)),
            }
        }
    }
}

/// Index of the `"` closing the string whose first byte is `b[i]`.
#[inline]
fn string_end(b: &[u8], mut i: usize) -> Result<usize, Syntax> {
    /// Bit 7 of each byte of `w` that equals `c`, exact up to and
    /// including the lowest one set (the classic zero-byte test on `w ^ c`).
    fn eq_bytes(w: u64, c: u8) -> u64 {
        let x = w ^ (u64::from(c) * 0x0101_0101_0101_0101);
        x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080
    }
    // Eight bytes at a time up to the first byte that ends a string, legally
    // or not; the byte loop below then says which it is (and reads the
    // last bytes of the text, where no whole word is left).
    while let Some(word) = b.get(i..i + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        let stops = eq_bytes(w, b'"') | eq_bytes(w, b'\\') | eq_bytes(w, b'\n');
        if stops != 0 {
            i += (stops.trailing_zeros() / 8) as usize;
            break;
        }
        i += 8;
    }
    loop {
        match b.get(i) {
            Some(b'"') => return Ok(i),
            Some(b'\\') => return Err(Syntax("escapes are not used by the exporter", i)),
            Some(b'\n') | None => return Err(Syntax("unterminated string", i)),
            Some(_) => i += 1,
        }
    }
}

/// The run of digits at `b[start..]` as a `u64`, and the index after it.
#[inline]
fn number(b: &[u8], start: usize) -> Result<(u64, usize), Syntax> {
    let (mut v, mut i) = (0u64, start);
    while let Some(d) = b.get(i).map(|c| c.wrapping_sub(b'0')).filter(|&d| d < 10) {
        v = v.wrapping_mul(10).wrapping_add(d.into());
        i += 1;
    }
    // Up to 19 digits stay below 10^19 < 2^64, so nothing wrapped; a longer
    // run is added up again with checks.
    if i - start > 19 {
        let checked = |v: u64, c: &u8| v.checked_mul(10)?.checked_add((c - b'0').into());
        v = b[start..i].iter().try_fold(0, checked).ok_or(Syntax("number over 64 bits", start))?;
    }
    if i == start {
        return Err(Syntax("expected digits", i));
    }
    Ok((v, i))
}

/// The text still to read and the number of the line last taken from it.
struct Lines<'a> {
    rest: &'a str,
    lineno: usize,
}

impl<'a> Lines<'a> {
    /// Scan the next non-blank line into `line`; `None` at the end of the
    /// text. Blank lines count towards `lineno`.
    fn next(&mut self, line: &mut Line<'a>) -> Option<Result<(), Syntax>> {
        while !self.rest.is_empty() {
            self.lineno += 1;
            // What the exporter writes — an object, then a newline — is
            // found and read in the one pass `scan` makes over it.
            if let Ok(n) = line.scan(self.rest) {
                let tail = &self.rest[n..];
                let tail = tail.strip_prefix('\r').unwrap_or(tail);
                if let Some(tail) = tail.strip_prefix('\n').or(tail.is_empty().then_some("")) {
                    self.rest = tail;
                    return Some(Ok(()));
                }
            }
            // Anything else (padding, a blank line, an error) is cut at its
            // newline and trimmed before it is scanned.
            let (text, tail) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
            self.rest = tail;
            let text = text.trim();
            if !text.is_empty() {
                return Some(line.scan(text).and_then(|n| {
                    if n == text.len() { Ok(()) } else { Err(Syntax("trailing bytes", n)) }
                }));
            }
        }
        None
    }
}

/// Parse `body` (the full JSONL text) into a [`Trace`].
pub fn parse(body: &str) -> Result<Trace, String> {
    parse_in(body, parts_for(body.len()))
}

/// [`parse`] with the lines after the header cut into `parts` pieces.
pub(crate) fn parse_in(body: &str, parts: usize) -> Result<Trace, String> {
    let mut line = Line::new();
    let mut lines = Lines { rest: body, lineno: 0 };
    // Header errors say "line 1" wherever the first non-blank line is.
    lines
        .next(&mut line)
        .ok_or_else(|| "empty trace file".to_string())?
        .map_err(|e| format!("line 1: {}", e.describe()))?;
    if line.str(META) != Some("scioto-trace") {
        return Err("line 1: missing scioto-trace meta header".into());
    }
    if let Some(v) = line.num(VERSION_KEY).filter(|&v| v > VERSION) {
        return Err(format!("line 1: trace version {v} is newer than this reader's {VERSION}"));
    }
    let ranks = line.num(RANKS).ok_or("line 1: meta lacks \"ranks\"")?;
    if ranks == 0 {
        return Err("line 1: meta declares 0 ranks".into());
    }
    // `dropped` is required and one entry per rank, so every per-rank
    // allocation below is bounded by the header's own length in bytes.
    let dropped = line.arr(DROPPED).ok_or("line 1: meta lacks \"dropped\"")?.to_vec();
    // Wall-clock (concurrent-mode) traces are marked `"clock":"wall"`;
    // any other value (or absence) means virtual time.
    let wall_clock = match line.str(CLOCK) {
        None => false,
        Some("wall") => true,
        Some(other) => {
            return Err(format!(
                "line 1: unknown clock kind {other:?} (expected \"wall\" or no clock key)"
            ))
        }
    };
    if dropped.len() as u64 != ranks {
        return Err(format!("line 1: dropped has {} entries for {ranks} ranks", dropped.len()));
    }
    let ranks = dropped.len();
    let final_clock_ns = line.arr(FINAL_CLOCK_NS).unwrap_or_default().to_vec();

    let mut events: Vec<Vec<StampedEvent>> = vec![Vec::new(); ranks];
    let mut gauges: Vec<BTreeMap<String, Gauge>> = vec![BTreeMap::new(); ranks];
    let mut lineno = lines.lineno;
    for part in in_parts(cut(lines.rest, parts), |text| read_part(text, ranks)) {
        let part = part.map_err(|(at, what)| format!("line {}: {what}", lineno + at))?;
        lineno += part.lines;
        for (all, mut more) in events.iter_mut().zip(part.events) {
            if all.is_empty() {
                *all = more;
            } else {
                all.append(&mut more);
            }
        }
        // A gauge named again later in the text replaces the earlier one.
        for (all, mut more) in gauges.iter_mut().zip(part.gauges) {
            all.append(&mut more);
        }
    }

    Ok(Trace {
        events,
        dropped,
        final_clock_ns,
        wall_clock,
        gauges,
    })
}

/// `text` cut into `parts` (at least one) pieces of about equal length,
/// each but the last ending just after a newline (a piece may be empty).
fn cut(text: &str, parts: usize) -> impl Iterator<Item = &str> {
    let mut rest = text;
    (1..=parts.max(1)).rev().map(move |left| {
        // The last piece (`left == 1`) searches nothing and takes the rest.
        let want = rest.len() / left;
        let end = rest.as_bytes()[want..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |newline| want + newline + 1);
        let piece;
        (piece, rest) = rest.split_at(end);
        piece
    })
}

/// One piece of the text after the header, read: its events and gauges
/// rank by rank, and how many lines it spans.
struct Part {
    events: Vec<Vec<StampedEvent>>,
    gauges: Vec<BTreeMap<String, Gauge>>,
    lines: usize,
}

/// Read the lines of `text`, a piece of the text after the header that
/// starts at a line boundary. An error is the line it is on, counted from
/// the piece's first (1), and what is wrong.
fn read_part(text: &str, ranks: usize) -> Result<Part, (usize, String)> {
    let mut line = Line::new();
    let mut lines = Lines { rest: text, lineno: 0 };
    let mut events: Vec<Vec<StampedEvent>> = vec![Vec::new(); ranks];
    let mut gauges: Vec<BTreeMap<String, Gauge>> = vec![BTreeMap::new(); ranks];
    while let Some(scanned) = lines.next(&mut line) {
        let lineno = lines.lineno;
        scanned.map_err(|e| (lineno, e.describe()))?;
        let rank = line.num(RANK).ok_or_else(|| (lineno, "missing \"rank\"".to_string()))?;
        if rank >= ranks as u64 {
            return Err((lineno, format!("rank {rank} out of range ({ranks} ranks)")));
        }
        let rank = rank as usize;
        // A histogram line of an earlier build: its samples are the events'.
        if line.str(HIST).is_some() {
            continue;
        }
        if let Some(name) = line.str(GAUGE) {
            let g = gauge_from(&line).ok_or_else(|| (lineno, format!("malformed gauge {name}")))?;
            gauges[rank].insert(name.to_string(), g);
            continue;
        }
        let t_ns = line.num(T).ok_or_else(|| (lineno, "missing \"t\"".to_string()))?;
        let name = line.str(EV).ok_or_else(|| (lineno, "missing \"ev\"".to_string()))?;
        let event =
            event_from(name, &line).ok_or_else(|| (lineno, format!("malformed {name} event")))?;
        events[rank].push(StampedEvent { t_ns, event });
    }
    Ok(Part {
        events,
        gauges,
        lines: lines.lineno,
    })
}

fn gauge_from(f: &Line) -> Option<Gauge> {
    Some(Gauge {
        samples: f.num(SAMPLES)?,
        sum: f.num(SUM)?,
        max: f.num(MAX)?,
        last: f.num(LAST)?,
    })
}

fn event_from(name: &str, f: &Line) -> Option<TraceEvent> {
    Some(match name {
        "TaskExecBegin" => TraceEvent::TaskExecBegin {
            callback: f.n32(CALLBACK)?,
            creator: f.n32(CREATOR)?,
        },
        "TaskExecEnd" => TraceEvent::TaskExecEnd { callback: f.n32(CALLBACK)? },
        "StealAttempt" => TraceEvent::StealAttempt {
            victim: f.n32(VICTIM)?,
            got: f.n32(GOT)?,
            dur_ns: f.num(DUR)?,
        },
        "LockWait" => TraceEvent::LockWait { target: f.n32(TARGET)?, dur_ns: f.num(DUR)? },
        "BarrierWait" => TraceEvent::BarrierWait { dur_ns: f.num(DUR)?, epoch: f.num(EPOCH)? },
        "TdProgress" => TraceEvent::TdProgress { dur_ns: f.num(DUR)? },
        "SplitRelease" => TraceEvent::SplitRelease { moved: f.n32(MOVED)? },
        "SplitReclaim" => TraceEvent::SplitReclaim { moved: f.n32(MOVED)? },
        "TdWave" => TraceEvent::TdWave {
            wave: f.n32(WAVE)?,
            dir: match f.str(DIR)? {
                "down" => WaveDir::Down,
                "up" => WaveDir::Up,
                "term" => WaveDir::Term,
                _ => return None,
            },
            black: f.bool(BLACK)?,
        },
        "QueueDepth" => TraceEvent::QueueDepth { local: f.n32(LOCAL)?, shared: f.n32(SHARED)? },
        "Block" => TraceEvent::Block,
        "Unblock" => TraceEvent::Unblock { target: f.n32(TARGET)? },
        "MsgSend" => TraceEvent::MsgSend {
            dst: f.n32(DST)?,
            bytes: f.n32(BYTES)?,
            seq: f.num(SEQ)?,
        },
        "MsgRecv" => TraceEvent::MsgRecv { src: f.n32(SRC)?, seq: f.num(SEQ)? },
        "RemoteOp" => TraceEvent::RemoteOp {
            kind: match f.str(KIND)? {
                "put" => RemoteOpKind::Put,
                "get" => RemoteOpKind::Get,
                "acc" => RemoteOpKind::Acc,
                "rmw" => RemoteOpKind::Rmw,
                _ => return None,
            },
            target: f.n32(TARGET)?,
            seg: f.n32(SEG)?,
            offset: f.offset()?,
            bytes: f.n32(BYTES)?,
            atomic: f.bool(ATOMIC)?,
        },
        "LocalAccess" => TraceEvent::LocalAccess {
            seg: f.n32(SEG)?,
            offset: f.offset()?,
            bytes: f.n32(BYTES)?,
            write: f.bool(WRITE)?,
            atomic: f.bool(ATOMIC)?,
        },
        "LockAcq" => TraceEvent::LockAcq {
            target: f.n32(TARGET)?,
            set: f.n32(SET)?,
            idx: f.n32(IDX)?,
            seq: f.num(SEQ)?,
        },
        "LockRel" => TraceEvent::LockRel {
            target: f.n32(TARGET)?,
            set: f.n32(SET)?,
            idx: f.n32(IDX)?,
            seq: f.num(SEQ)?,
        },
        _ => return None,
    })
}

#[cfg(test)]
mod reference;

#[cfg(test)]
pub(crate) mod tests {
    use super::reference::{reference_parse, reference_to_chrome_json, reference_to_jsonl};
    use super::*;
    use scioto_sim::{Machine, MachineConfig, TraceConfig, TraceSink};

    fn sample_trace() -> Trace {
        let sink = TraceSink::new(&TraceConfig::enabled(), 2);
        sink.emit(0, 10, || TraceEvent::TaskExecBegin { callback: 3, creator: 1 });
        sink.emit(0, 40, || TraceEvent::TaskExecEnd { callback: 3 });
        sink.emit(0, 90, || TraceEvent::StealAttempt { victim: 1, got: 2, dur_ns: 30 });
        sink.emit(1, 5, || TraceEvent::TdWave { wave: 2, dir: WaveDir::Up, black: true });
        sink.emit(1, 9, || TraceEvent::RemoteOp {
            kind: RemoteOpKind::Acc,
            target: 0,
            seg: 2,
            offset: 64,
            bytes: 16,
            atomic: true,
        });
        sink.emit(1, 12, || TraceEvent::LockWait { target: 0, dur_ns: 4 });
        sink.emit(1, 20, || TraceEvent::BarrierWait { dur_ns: 0, epoch: 0 });
        sink.emit(1, 33, || TraceEvent::TdProgress { dur_ns: 7 });
        sink.emit(1, 35, || TraceEvent::Block);
        sink.emit(1, 40, || TraceEvent::LocalAccess {
            seg: 1,
            offset: 8,
            bytes: 8,
            write: true,
            atomic: false,
        });
        sink.emit(1, 44, || TraceEvent::LockAcq { target: 0, set: 0, idx: 3, seq: 9 });
        sink.emit(1, 48, || TraceEvent::LockRel { target: 0, set: 0, idx: 3, seq: 9 });
        sink.emit(0, 95, || TraceEvent::MsgSend { dst: 1, bytes: 32, seq: 5 });
        sink.emit(1, 99, || TraceEvent::MsgRecv { src: 0, seq: 5 });
        sink.gauge(1, "queue_local", 7);
        let mut t = sink.finish().unwrap();
        t.final_clock_ns = vec![95, 99];
        t
    }

    #[test]
    fn jsonl_round_trips_events_and_meta() {
        let t = sample_trace();
        let parsed = parse(&t.to_jsonl()).expect("export must re-parse");
        assert_eq!(parsed.events, t.events);
        assert_eq!(parsed.dropped, t.dropped);
        assert_eq!(parsed.final_clock_ns, t.final_clock_ns);
        // And the re-export of the parsed trace is byte-identical.
        assert_eq!(parsed.to_jsonl(), t.to_jsonl());
    }

    #[test]
    fn jsonl_round_trips_metric_registries() {
        let t = sample_trace();
        let parsed = parse(&t.to_jsonl()).expect("export must re-parse");
        assert_eq!(parsed.gauges, t.gauges);
        let g = parsed.gauges[1]["queue_local"];
        assert_eq!((g.samples, g.sum, g.max, g.last), (1, 7, 7, 7));
    }

    #[test]
    fn a_non_ascii_gauge_name_round_trips() {
        let mut t = sample_trace();
        let name = "tâche_über_队列";
        let g = t.gauges[1]["queue_local"];
        t.gauges[0].insert(name.to_string(), g);
        let parsed = parse(&t.to_jsonl()).expect("export must re-parse");
        assert_eq!(parsed.gauges, t.gauges);
        assert_eq!(parsed.gauges[0][name].sum, 7);
    }

    /// Histogram lines as earlier builds wrote them after the header.
    const LEGACY_HISTS: &str = "\
        {\"hist\":\"steal_rtt_ns\",\"rank\":0,\"count\":1,\"sum\":30,\"min\":30,\"max\":30,\"buckets\":[5,1]}\n\
        {\"hist\":\"task_exec_ns\",\"rank\":0,\"count\":1,\"sum\":30,\"min\":30,\"max\":30,\"buckets\":[5,1]}\n\
        {\"hist\":\"td_wave_gap_ns\",\"rank\":1,\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]}\n";

    #[test]
    fn hist_lines_of_earlier_builds_are_skipped() {
        let t = sample_trace();
        let text = t.to_jsonl();
        assert!(!text.contains("\"hist\""), "the writer emits no histogram lines");
        let (header, rest) = text.split_once('\n').unwrap();
        // Skipped whole, however malformed: a ragged bucket array was once an
        // error, and is now a line nobody reads.
        let ragged = "{\"hist\":\"bad\",\"rank\":0,\"count\":1,\"buckets\":[1]}\n";
        let old = format!("{header}\n{LEGACY_HISTS}{ragged}{rest}");
        let parsed = parse(&old).expect("a file of an earlier build parses");
        assert_eq!(parsed.events, t.events);
        assert_eq!(parsed.gauges, t.gauges);
        assert_eq!((parsed.dropped, parsed.final_clock_ns), (t.dropped, t.final_clock_ns));
        assert_eq!(parse(&old).unwrap().to_jsonl(), text);
        assert_same_outcome(&old, &[2, 3]);
    }

    #[test]
    fn missing_header_is_an_error() {
        let err = parse("{\"rank\":0,\"t\":1,\"ev\":\"Block\"}\n").unwrap_err();
        assert!(err.contains("meta header"), "{err}");
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let t = sample_trace();
        let mut body = t.to_jsonl();
        body.push_str("{\"rank\":0,\"t\":1,\"ev\":\"NoSuchEvent\"}\n");
        let err = parse(&body).unwrap_err();
        assert!(err.contains("malformed NoSuchEvent"), "{err}");
        // A 32-bit field of 1 << 32 is malformed, not rank/lock 0, and an
        // access whose last byte lies past u64::MAX is, not a wrapped range.
        let lines = t.to_jsonl().lines().count();
        for (ev, rest) in [
            ("StealAttempt", "\"victim\":4294967296,\"got\":0,\"dur\":5"),
            ("LockAcq", "\"target\":0,\"set\":0,\"idx\":4294967296,\"seq\":1"),
            (
                "RemoteOp",
                "\"kind\":\"put\",\"target\":0,\"seg\":0,\"off\":18446744073709551608,\"bytes\":9,\"atomic\":false",
            ),
            ("LocalAccess", "\"seg\":0,\"off\":18446744073709551615,\"bytes\":2,\"write\":true,\"atomic\":false"),
        ] {
            let body = format!("{}{{\"rank\":0,\"t\":1,\"ev\":\"{ev}\",{rest}}}\n", t.to_jsonl());
            let err = parse(&body).unwrap_err();
            assert_eq!(err, format!("line {}: malformed {ev} event", lines + 1));
        }
    }

    #[test]
    fn out_of_range_rank_is_rejected() {
        let body = "{\"meta\":\"scioto-trace\",\"version\":2,\"ranks\":1,\"dropped\":[0],\"final_clock_ns\":[5]}\n\
                    {\"rank\":3,\"t\":1,\"ev\":\"Block\"}\n";
        assert!(parse(body).unwrap_err().contains("out of range"));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(parse("").is_err());
    }

    #[test]
    fn wall_clock_marker_round_trips() {
        let mut t = sample_trace();
        t.wall_clock = true;
        let body = t.to_jsonl();
        let parsed = parse(&body).expect("wall-clock export must re-parse");
        assert!(parsed.wall_clock);
        assert_eq!(parsed.to_jsonl(), body);
        // Virtual-time traces parse back unmarked.
        assert!(!parse(&sample_trace().to_jsonl()).unwrap().wall_clock);
    }

    #[test]
    fn unknown_clock_kind_is_an_error() {
        let body = "{\"meta\":\"scioto-trace\",\"version\":3,\"ranks\":1,\"dropped\":[0],\
                    \"final_clock_ns\":[5],\"clock\":\"lamport\"}\n";
        let err = parse(body).unwrap_err();
        assert!(err.contains("unknown clock kind"), "{err}");
    }

    const HEADER: &str = "{\"meta\":\"scioto-trace\",\"version\":3,\"ranks\":1,\"dropped\":[0]}\n";

    #[test]
    fn header_cannot_size_an_allocation_beyond_its_own_bytes() {
        // `ranks` used to be trusted: this line aborted the process in
        // `vec![0; ranks]`. `dropped` is required, one entry per rank.
        let huge = "{\"meta\":\"scioto-trace\",\"version\":3,\"ranks\":1000000000000000}\n";
        assert_eq!(parse(huge).unwrap_err(), "line 1: meta lacks \"dropped\"");
        let short = "{\"meta\":\"scioto-trace\",\"ranks\":1000000000000000,\"dropped\":[0,0]}\n";
        assert_eq!(
            parse(short).unwrap_err(),
            "line 1: dropped has 2 entries for 1000000000000000 ranks"
        );
        assert_eq!(parse(HEADER).unwrap().nranks(), 1);
    }

    #[test]
    fn a_newer_format_version_is_refused_not_ignored() {
        let versioned = |v: &str| HEADER.replace("\"version\":3", v);
        let err = parse(&versioned("\"version\":5")).unwrap_err();
        assert_eq!(err, "line 1: trace version 5 is newer than this reader's 4");
        for ok in ["\"version\":4", "\"version\":3", "\"version\":2", "\"v\":0"] {
            assert!(parse(&versioned(ok)).is_ok(), "{ok}");
        }
    }

    #[test]
    fn error_line_numbers_count_blank_lines() {
        let bad = "{\"rank\":0,\"t\":1,\"ev\":\"Nope\"}\n";
        let body = format!("\n  \n{HEADER}\n\r\n{bad}");
        assert_eq!(parse(&body).unwrap_err(), "line 6: malformed Nope event");
        // The header is "line 1" wherever the first non-blank line sits.
        let err = parse("\n\n{\"rank\":0}\n").unwrap_err();
        assert_eq!(err, "line 1: missing scioto-trace meta header");
        for body in [body.as_str(), "\n\n{\"rank\":0}\n", "\n\n{\"rank\":0,}\n"] {
            assert_same_outcome(body, &[2, 3]);
        }
    }

    /// SplitMix64: the differential tests' only source of randomness.
    pub(crate) struct Mix(pub(crate) u64);

    impl Mix {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())]
        }

        /// A 64-bit field value: an edge (19 and 20 digits among them) or
        /// a random number of random magnitude.
        fn n64(&mut self) -> u64 {
            const EDGES: [u64; 7] = [
                0,
                1,
                9,
                u32::MAX as u64 + 1,
                9_999_999_999_999_999_999,
                10_000_000_000_000_000_000,
                u64::MAX,
            ];
            match self.below(3) {
                0 => self.pick(&EDGES),
                _ => self.next() >> self.below(64),
            }
        }

        fn n32(&mut self) -> u32 {
            match self.below(3) {
                0 => self.pick(&[0, 1, 10, u32::MAX]),
                _ => (self.next() >> (32 + self.below(32))) as u32,
            }
        }

        fn flag(&mut self) -> bool {
            self.next() & 1 == 1
        }

        /// An access's offset and byte count, moved down where its last
        /// byte would lie past `u64::MAX`: a trace that holds one is
        /// malformed.
        fn access(&mut self) -> (u64, u32) {
            let (offset, bytes) = (self.n64(), self.n32());
            (offset.min(u64::MAX - (u64::from(bytes.max(1)) - 1)), bytes)
        }
    }

    const VARIANTS: usize = 18;

    fn random_event(variant: usize, r: &mut Mix) -> TraceEvent {
        match variant {
            0 => TraceEvent::TaskExecBegin { callback: r.n32(), creator: r.n32() },
            1 => TraceEvent::TaskExecEnd { callback: r.n32() },
            2 => TraceEvent::StealAttempt { victim: r.n32(), got: r.n32(), dur_ns: r.n64() },
            3 => TraceEvent::LockWait { target: r.n32(), dur_ns: r.n64() },
            4 => TraceEvent::BarrierWait { dur_ns: r.n64(), epoch: r.n64() },
            5 => TraceEvent::TdProgress { dur_ns: r.n64() },
            6 => TraceEvent::SplitRelease { moved: r.n32() },
            7 => TraceEvent::SplitReclaim { moved: r.n32() },
            8 => TraceEvent::TdWave {
                wave: r.n32(),
                dir: r.pick(&[WaveDir::Down, WaveDir::Up, WaveDir::Term]),
                black: r.flag(),
            },
            9 => TraceEvent::QueueDepth { local: r.n32(), shared: r.n32() },
            10 => TraceEvent::Block,
            11 => TraceEvent::Unblock { target: r.n32() },
            12 => TraceEvent::MsgSend { dst: r.n32(), bytes: r.n32(), seq: r.n64() },
            13 => TraceEvent::MsgRecv { src: r.n32(), seq: r.n64() },
            14 => {
                use RemoteOpKind::{Acc, Get, Put, Rmw};
                let (kind, target, seg) = (r.pick(&[Put, Get, Acc, Rmw]), r.n32(), r.n32());
                let (offset, bytes) = r.access();
                TraceEvent::RemoteOp { kind, target, seg, offset, bytes, atomic: r.flag() }
            }
            15 => {
                let seg = r.n32();
                let (offset, bytes) = r.access();
                TraceEvent::LocalAccess { seg, offset, bytes, write: r.flag(), atomic: r.flag() }
            }
            16 => TraceEvent::LockAcq { target: r.n32(), set: r.n32(), idx: r.n32(), seq: r.n64() },
            _ => TraceEvent::LockRel { target: r.n32(), set: r.n32(), idx: r.n32(), seq: r.n64() },
        }
    }

    /// `per_variant` random events of every variant spread over three
    /// ranks, with random drop counts, clocks and gauges.
    fn random_trace(seed: u64, per_variant: usize, wall_clock: bool) -> Trace {
        let r = &mut Mix(seed);
        let ranks = 3;
        let mut events = vec![Vec::new(); ranks];
        for i in 0..per_variant * VARIANTS {
            let event = random_event(i % VARIANTS, r);
            events[r.below(ranks)].push(StampedEvent { t_ns: r.n64(), event });
        }
        let mut gauges = vec![BTreeMap::new(); ranks];
        for per_rank in &mut gauges {
            if r.flag() {
                let g = Gauge { samples: r.n64(), sum: r.n64(), max: r.n64(), last: r.n64() };
                per_rank.insert("queue_local".to_string(), g);
            }
        }
        Trace {
            events,
            dropped: (0..ranks).map(|_| r.n64()).collect(),
            final_clock_ns: (0..r.pick(&[0, ranks])).map(|_| r.n64()).collect(),
            wall_clock,
            gauges,
        }
    }

    /// A traced 8-rank UTS run: what `--trace-out` really writes.
    pub(crate) fn uts_trace() -> Trace {
        use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
        let cfg = MachineConfig::virtual_time(8).with_seed(7).with_trace(TraceConfig::enabled());
        let tree = scioto_uts::presets::tiny();
        let run = Machine::run(cfg, move |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(tree)).0);
        run.report.trace.expect("tracing was enabled")
    }

    #[test]
    fn both_exports_and_the_reader_match_the_reference_codec() {
        let mut traces = vec![
            sample_trace(),
            crate::replay::tests::rich_trace(),
            uts_trace(),
            random_trace(1, 2_000, false),
            random_trace(2, 200, true),
        ];
        let mut wall = sample_trace();
        wall.wall_clock = true;
        traces.push(wall);
        for t in &traces {
            let text = t.to_jsonl();
            assert!(text == reference_to_jsonl(t), "JSONL export differs from the reference");
            assert!(
                t.to_chrome_json() == reference_to_chrome_json(t),
                "Chrome export differs from the reference"
            );
            let parsed = parse(&text).expect("export parses");
            assert!(&parsed == t, "parsed trace differs from the exported one");
            assert!(reference_parse(&text).as_ref() == Ok(t), "reference reader disagrees");
        }
        assert!(traces[2].total_events() > 1_000, "the UTS run recorded a real trace");
    }

    /// `parse` and `reference_parse` agree on `body`: the same trace, or an
    /// error at the same line — the same text too, unless it is the
    /// scanner's description of a syntax error, which is not pinned. A read
    /// in each of `splits` parts has exactly the outcome of a read in one.
    /// Returns whether the body was accepted.
    fn assert_same_outcome(body: &str, splits: &[usize]) -> bool {
        let whole = parse_in(body, 1);
        for &parts in splits {
            let split = parse_in(body, parts);
            assert!(split == whole, "{parts} parts: {:?} vs {:?} for {body:?}", split.err(), whole.err());
        }
        let accepted = whole.is_ok();
        match (whole, reference_parse(body)) {
            (Ok(new), Ok(old)) => assert!(new == old, "traces differ for {body:?}"),
            (Err(new), Err(old)) => {
                let line = |e: &str| e.split_once(": ").map(|(l, _)| l.to_string());
                assert_eq!(line(&new), line(&old), "{new:?} vs {old:?} for {body:?}");
                let what = old.split_once(": ").map_or(old.as_str(), |(_, w)| w);
                let pinned =
                    ["missing ", "malformed ", "rank ", "meta ", "unknown clock", "dropped has"];
                if pinned.iter().any(|p| what.starts_with(p)) {
                    assert_eq!(new, old, "for {body:?}");
                }
            }
            (new, old) => panic!("accept/reject split: {new:?} vs {old:?} for {body:?}"),
        }
        accepted
    }

    #[test]
    fn a_read_in_parts_equals_the_read_in_one() {
        let t = random_trace(5, 40, false);
        let text = t.to_jsonl();
        let mut lines: Vec<&str> = text.lines().collect();
        // Gauge and legacy hist lines among the events, so that every part
        // count puts some of them past a cut; a gauge named again later in
        // the text replaces the earlier one.
        let regauge = "{\"gauge\":\"queue_local\",\"rank\":1,\"samples\":9,\"sum\":9,\"max\":9,\"last\":9}";
        for (i, extra) in LEGACY_HISTS.lines().chain([regauge, "", "  \r"]).enumerate() {
            lines.insert(100 + 97 * i, extra.trim_start());
        }
        let body = lines.join("\n") + "\n";
        let whole = parse_in(&body, 1).expect("the body parses");
        assert_eq!(whole.events, t.events);
        assert_eq!(whole.gauges[1]["queue_local"].samples, 9);
        for parts in 2..=8 {
            assert!(parse_in(&body, parts).as_ref() == Ok(&whole), "{parts} parts");
        }
        // An error in any part names its line from the top of the file, and
        // of two errors the first in the text wins.
        for bad in [1, 2, 150, 400, lines.len() - 1] {
            let mut broken = lines.clone();
            broken[bad] = "{\"rank\":0,\"t\":1,\"ev\":\"Nope\"}";
            broken[lines.len() - 1] = "{\"rank\":0}";
            let body = broken.join("\n");
            for parts in 1..=8 {
                let err = parse_in(&body, parts).unwrap_err();
                let want = if bad == lines.len() - 1 {
                    format!("line {}: missing \"t\"", bad + 1)
                } else {
                    format!("line {}: malformed Nope event", bad + 1)
                };
                assert_eq!(err, want, "{parts} parts");
            }
        }
    }

    /// The top-level members of one exported line (`"k":v` each).
    fn members(line: &str) -> Vec<String> {
        let inner = &line[1..line.len() - 1];
        let (mut out, mut depth, mut start) = (Vec::new(), 0, 0);
        for (i, c) in inner.char_indices() {
            match c {
                '[' => depth += 1,
                ']' => depth -= 1,
                ',' if depth == 0 => {
                    out.push(inner[start..i].to_string());
                    start = i + 1;
                }
                _ => {}
            }
        }
        out.push(inner[start..].to_string());
        out
    }

    /// One seeded mutation of `line` (an exported line, no newline).
    fn mutate(line: &str, r: &mut Mix) -> String {
        const BYTES: &[u8] = b"{}[]\":,\\ \t\r\n0123456789tfxae-.\0";
        const NUMBERS: [&str; 7] = [
            "9999999999999999999",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "000000000000000000001",
            "100000000000000000000",
            "4294967296",
        ];
        const VALUES: [&str; 9] =
            ["7", "true", "false", "\"s\"", "[]", "[1,2]", "[1,]", "\"\"", "-1"];
        let mut bytes = line.as_bytes().to_vec();
        let at = r.below(bytes.len());
        let mut parts = members(line);
        let part = r.below(parts.len());
        let key = parts[part].split_once(':').expect("a member").0.to_string();
        let kind = r.below(12);
        match kind {
            0 => bytes[at] = r.pick(BYTES),
            1 => bytes.insert(at, r.pick(BYTES)),
            2 => drop(bytes.remove(at)),
            3 => bytes.truncate(at),
            4 => {
                // Key order is free.
                let to = r.below(parts.len());
                parts.swap(part, to);
            }
            5 => {
                // The first occurrence of a repeated key wins.
                let again = format!("{key}:{}", r.pick(&VALUES));
                parts.insert(r.below(parts.len() + 1), again);
            }
            6 => {
                // Unknown keys are skipped, whatever they hold.
                let unknown =
                    ["\"zz\"", "\"rank \"", "\"final_cl\"", "\"callbackx\"", "\"t\0\"", "\"\""];
                let member = format!("{}:{}", r.pick(&unknown), r.pick(&VALUES));
                parts.insert(r.below(parts.len() + 1), member);
            }
            7 => parts[part] = format!("{key}:{}", r.pick(&NUMBERS)),
            8 => parts[part] = format!("{key}:{}", r.pick(&VALUES)),
            9 => {
                // Whitespace around a line is trimmed, Unicode's included.
                let (before, after) = (["", " ", "\t", "\u{a0} "], ["\r", " ", " \t", "\u{2003}"]);
                return format!("{}{line}{}", r.pick(&before), r.pick(&after));
            }
            10 => return format!("{line}\n{}", r.pick(&["", "  ", "\r", "\t\r"])),
            _ => drop(parts.remove(part)),
        }
        match kind {
            0..=3 => String::from_utf8_lossy(&bytes).into_owned(),
            _ => format!("{{{}}}", parts.join(",")),
        }
    }

    #[test]
    fn mutated_lines_are_accepted_or_refused_exactly_as_before() {
        let r = &mut Mix(0x5C10);
        let sample = sample_trace().to_jsonl();
        let (header, rest) = sample.split_once('\n').unwrap();
        let corpus: Vec<Vec<String>> = [
            format!("{header}\n{LEGACY_HISTS}{rest}"),
            crate::replay::tests::rich_trace().to_jsonl(),
            random_trace(3, 1, true).to_jsonl(),
            random_trace(4, 1, false).to_jsonl(),
        ]
        .iter()
        .map(|text| text.lines().map(str::to_string).collect())
        .collect();
        let (mut accepted, mut refused) = (0, 0);
        for i in 0..12_000 {
            let mut lines = corpus[r.below(corpus.len())].clone();
            let victim = if r.below(4) == 0 { 0 } else { r.below(lines.len()) };
            lines[victim] = mutate(&lines[victim], r);
            let ending = r.pick(&["\n", "\n", "\n", "\r\n"]);
            let body: String = lines.iter().flat_map(|l| [l.as_str(), ending]).collect();
            // Two parts and three in turn: a split read spawns threads,
            // which costs far more than reading a body this small.
            match assert_same_outcome(&body, &[2 + i % 2]) {
                true => accepted += 1,
                false => refused += 1,
            }
        }
        // The mutations exercise both sides of the grammar.
        assert!(accepted > 2_000 && refused > 2_000, "{accepted} accepted, {refused} refused");
    }
}
