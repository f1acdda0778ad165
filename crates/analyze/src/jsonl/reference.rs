//! The codec as it stood before it was rewritten, kept as the oracle the
//! differential tests compare the new reader and writer against (the
//! exporter through `scioto-sim`'s public API only). `core::fmt`, a
//! `Vec` per line and string-keyed lookups: slow, and plainly right.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use scioto_sim::{Gauge, RemoteOpKind, StampedEvent, Trace, TraceEvent, VtHistogram, WaveDir};

/// One parsed flat-JSON value; strings borrow from the line.
#[derive(Clone, Debug, PartialEq)]
enum Val<'a> {
    Num(u64),
    Str(&'a str),
    Bool(bool),
    Arr(Vec<u64>),
}

/// One line's `(key, value)` pairs in document order, borrowed from it.
type Fields<'a> = [(&'a str, Val<'a>)];

/// The parent's `jsonl::parse`, plus the two header rules this PR adds.
pub fn reference_parse(body: &str) -> Result<Trace, String> {
    let mut lines = body.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (_, first) = lines
        .next()
        .ok_or_else(|| "empty trace file".to_string())?;
    // One field buffer for the whole file: every line borrows from `body`.
    let mut fields = Vec::new();
    parse_flat(first, &mut fields).map_err(|e| format!("line 1: {e}"))?;
    let meta = &fields;
    if get_str(meta, "meta") != Some("scioto-trace") {
        return Err("line 1: missing scioto-trace meta header".into());
    }
    if let Some(v) = get_num(meta, "version").filter(|&v| v > 3) {
        return Err(format!("line 1: trace version {v} is newer than this reader's 3"));
    }
    let ranks = get_num(meta, "ranks").ok_or("line 1: meta lacks \"ranks\"")?;
    if ranks == 0 {
        return Err("line 1: meta declares 0 ranks".into());
    }
    let dropped = get_arr(meta, "dropped").ok_or("line 1: meta lacks \"dropped\"")?;
    let final_clock_ns = get_arr(meta, "final_clock_ns").unwrap_or_default();
    // Wall-clock (concurrent-mode) traces are marked `"clock":"wall"`;
    // any other value (or absence) means virtual time.
    let wall_clock = match get_str(meta, "clock") {
        None => false,
        Some("wall") => true,
        Some(other) => {
            return Err(format!(
                "line 1: unknown clock kind {other:?} (expected \"wall\" or no clock key)"
            ))
        }
    };
    if dropped.len() as u64 != ranks {
        return Err(format!(
            "line 1: dropped has {} entries for {ranks} ranks",
            dropped.len()
        ));
    }
    let ranks = dropped.len();

    let mut events: Vec<Vec<StampedEvent>> = vec![Vec::new(); ranks];
    let mut hists: Vec<BTreeMap<String, VtHistogram>> =
        (0..ranks).map(|_| BTreeMap::new()).collect();
    let mut gauges: Vec<BTreeMap<String, Gauge>> = (0..ranks).map(|_| BTreeMap::new()).collect();
    for (i, line) in lines {
        let lineno = i + 1;
        parse_flat(line, &mut fields).map_err(|e| format!("line {lineno}: {e}"))?;
        let rank = get_num(&fields, "rank")
            .ok_or_else(|| format!("line {lineno}: missing \"rank\""))? as usize;
        if rank >= ranks {
            return Err(format!("line {lineno}: rank {rank} out of range ({ranks} ranks)"));
        }
        if let Some(name) = get_str(&fields, "hist") {
            let h = hist_from(&fields)
                .ok_or_else(|| format!("line {lineno}: malformed histogram {name}"))?;
            hists[rank].insert(name.to_string(), h);
            continue;
        }
        if let Some(name) = get_str(&fields, "gauge") {
            let g = gauge_from(&fields)
                .ok_or_else(|| format!("line {lineno}: malformed gauge {name}"))?;
            gauges[rank].insert(name.to_string(), g);
            continue;
        }
        let t_ns = get_num(&fields, "t")
            .ok_or_else(|| format!("line {lineno}: missing \"t\""))?;
        let name = get_str(&fields, "ev")
            .ok_or_else(|| format!("line {lineno}: missing \"ev\""))?;
        let event = event_from(name, &fields)
            .ok_or_else(|| format!("line {lineno}: malformed {name} event"))?;
        events[rank].push(StampedEvent { t_ns, event });
    }

    Ok(Trace {
        events,
        dropped,
        final_clock_ns,
        wall_clock,
        hists,
        gauges,
    })
}

fn hist_from(f: &Fields) -> Option<VtHistogram> {
    VtHistogram::from_parts(
        &get_arr(f, "buckets")?,
        get_num(f, "count")?,
        get_num(f, "sum")?,
        get_num(f, "min")?,
        get_num(f, "max")?,
    )
}

fn gauge_from(f: &Fields) -> Option<Gauge> {
    Some(Gauge {
        samples: get_num(f, "samples")?,
        sum: get_num(f, "sum")?,
        max: get_num(f, "max")?,
        last: get_num(f, "last")?,
    })
}

fn event_from(name: &str, f: &Fields) -> Option<TraceEvent> {
    let num = |k: &str| get_num(f, k);
    let n32 = |k: &str| num(k).and_then(|v| u32::try_from(v).ok());
    Some(match name {
        "TaskExecBegin" => TraceEvent::TaskExecBegin {
            callback: n32("callback")?,
            creator: n32("creator")?,
        },
        "TaskExecEnd" => TraceEvent::TaskExecEnd { callback: n32("callback")? },
        "StealAttempt" => TraceEvent::StealAttempt {
            victim: n32("victim")?,
            got: n32("got")?,
            dur_ns: num("dur")?,
        },
        "LockWait" => TraceEvent::LockWait { target: n32("target")?, dur_ns: num("dur")? },
        "BarrierWait" => TraceEvent::BarrierWait { dur_ns: num("dur")?, epoch: num("epoch")? },
        "TdProgress" => TraceEvent::TdProgress { dur_ns: num("dur")? },
        "SplitRelease" => TraceEvent::SplitRelease { moved: n32("moved")? },
        "SplitReclaim" => TraceEvent::SplitReclaim { moved: n32("moved")? },
        "TdWave" => TraceEvent::TdWave {
            wave: n32("wave")?,
            dir: match get_str(f, "dir")? {
                "down" => WaveDir::Down,
                "up" => WaveDir::Up,
                "term" => WaveDir::Term,
                _ => return None,
            },
            black: get_bool(f, "black")?,
        },
        "QueueDepth" => TraceEvent::QueueDepth { local: n32("local")?, shared: n32("shared")? },
        "Block" => TraceEvent::Block,
        "Unblock" => TraceEvent::Unblock { target: n32("target")? },
        "MsgSend" => TraceEvent::MsgSend {
            dst: n32("dst")?,
            bytes: n32("bytes")?,
            seq: num("seq")?,
        },
        "MsgRecv" => TraceEvent::MsgRecv { src: n32("src")?, seq: num("seq")? },
        "RemoteOp" => TraceEvent::RemoteOp {
            kind: match get_str(f, "kind")? {
                "put" => RemoteOpKind::Put,
                "get" => RemoteOpKind::Get,
                "acc" => RemoteOpKind::Acc,
                "rmw" => RemoteOpKind::Rmw,
                _ => return None,
            },
            target: n32("target")?,
            seg: n32("seg")?,
            offset: num("off")?,
            bytes: n32("bytes")?,
            atomic: get_bool(f, "atomic")?,
        },
        "LocalAccess" => TraceEvent::LocalAccess {
            seg: n32("seg")?,
            offset: num("off")?,
            bytes: n32("bytes")?,
            write: get_bool(f, "write")?,
            atomic: get_bool(f, "atomic")?,
        },
        "LockAcq" => TraceEvent::LockAcq {
            target: n32("target")?,
            set: n32("set")?,
            idx: n32("idx")?,
            seq: num("seq")?,
        },
        "LockRel" => TraceEvent::LockRel {
            target: n32("target")?,
            set: n32("set")?,
            idx: n32("idx")?,
            seq: num("seq")?,
        },
        _ => return None,
    })
}

fn get_num(f: &Fields, k: &str) -> Option<u64> {
    f.iter().find(|(key, _)| *key == k).and_then(|(_, v)| match v {
        Val::Num(n) => Some(*n),
        _ => None,
    })
}

fn get_str<'a>(f: &Fields<'a>, k: &str) -> Option<&'a str> {
    f.iter().find(|(key, _)| *key == k).and_then(|(_, v)| match v {
        Val::Str(s) => Some(*s),
        _ => None,
    })
}

fn get_bool(f: &Fields, k: &str) -> Option<bool> {
    f.iter().find(|(key, _)| *key == k).and_then(|(_, v)| match v {
        Val::Bool(b) => Some(*b),
        _ => None,
    })
}

fn get_arr(f: &Fields, k: &str) -> Option<Vec<u64>> {
    f.iter().find(|(key, _)| *key == k).and_then(|(_, v)| match v {
        Val::Arr(a) => Some(a.clone()),
        _ => None,
    })
}

/// Parse one flat JSON object (`{"k":v,...}` with u64/string/bool/
/// u64-array values) into `out` (cleared first), keys in document order.
fn parse_flat<'a>(line: &'a str, out: &mut Vec<(&'a str, Val<'a>)>) -> Result<(), String> {
    out.clear();
    let mut p = Scanner { b: line.trim().as_bytes(), i: 0 };
    p.expect(b'{')?;
    if p.peek() == Some(b'}') {
        p.i += 1;
        return p.finish();
    }
    loop {
        let key = p.string()?;
        p.expect(b':')?;
        let val = p.value()?;
        out.push((key, val));
        match p.next_byte()? {
            b',' => continue,
            b'}' => return p.finish(),
            c => return Err(format!("unexpected byte {:?} at {}", c as char, p.i)),
        }
    }
}

struct Scanner<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn next_byte(&mut self) -> Result<u8, String> {
        let c = self.peek().ok_or("unexpected end of line")?;
        self.i += 1;
        Ok(c)
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.next_byte()? {
            got if got == c => Ok(()),
            got => Err(format!("expected {:?}, got {:?} at {}", c as char, got as char, self.i)),
        }
    }

    fn finish(&self) -> Result<(), String> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(format!("trailing bytes at {}", self.i))
        }
    }

    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.i;
        while let Some(c) = self.peek() {
            if c == b'"' {
                let s = std::str::from_utf8(&self.b[start..self.i])
                    .map_err(|_| "invalid utf-8 in string".to_string())?;
                self.i += 1;
                return Ok(s);
            }
            if c == b'\\' {
                return Err("escapes are not used by the exporter".into());
            }
            self.i += 1;
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected digits at {}", self.i));
        }
        std::str::from_utf8(&self.b[start..self.i])
            .unwrap()
            .parse()
            .map_err(|e| format!("bad number: {e}"))
    }

    fn value(&mut self) -> Result<Val<'a>, String> {
        match self.peek().ok_or("unexpected end of line")? {
            b'"' => Ok(Val::Str(self.string()?)),
            b't' => self.literal("true").map(|_| Val::Bool(true)),
            b'f' => self.literal("false").map(|_| Val::Bool(false)),
            b'[' => {
                self.i += 1;
                let mut arr = Vec::new();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Val::Arr(arr));
                }
                loop {
                    arr.push(self.number()?);
                    match self.next_byte()? {
                        b',' => continue,
                        b']' => return Ok(Val::Arr(arr)),
                        c => return Err(format!("unexpected {:?} in array", c as char)),
                    }
                }
            }
            c if c.is_ascii_digit() => Ok(Val::Num(self.number()?)),
            c => Err(format!("unexpected value start {:?}", c as char)),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            Err(format!("invalid literal at {}", self.i))
        }
    }
}

fn write_args(ev: &TraceEvent, out: &mut String) {
    match *ev {
        TraceEvent::TaskExecBegin { callback, creator } => {
            let _ = write!(out, "\"callback\":{callback},\"creator\":{creator}");
        }
        TraceEvent::TaskExecEnd { callback } => {
            let _ = write!(out, "\"callback\":{callback}");
        }
        TraceEvent::StealAttempt { victim, got, dur_ns } => {
            let _ = write!(out, "\"victim\":{victim},\"got\":{got},\"dur\":{dur_ns}");
        }
        TraceEvent::LockWait { target, dur_ns } => {
            let _ = write!(out, "\"target\":{target},\"dur\":{dur_ns}");
        }
        TraceEvent::BarrierWait { dur_ns, epoch } => {
            let _ = write!(out, "\"dur\":{dur_ns},\"epoch\":{epoch}");
        }
        TraceEvent::TdProgress { dur_ns } => {
            let _ = write!(out, "\"dur\":{dur_ns}");
        }
        TraceEvent::SplitRelease { moved } | TraceEvent::SplitReclaim { moved } => {
            let _ = write!(out, "\"moved\":{moved}");
        }
        TraceEvent::TdWave { wave, dir, black } => {
            let _ = write!(
                out,
                "\"wave\":{wave},\"dir\":\"{}\",\"black\":{black}",
                dir.name()
            );
        }
        TraceEvent::QueueDepth { local, shared } => {
            let _ = write!(out, "\"local\":{local},\"shared\":{shared}");
        }
        TraceEvent::Block => {}
        TraceEvent::Unblock { target } => {
            let _ = write!(out, "\"target\":{target}");
        }
        TraceEvent::MsgSend { dst, bytes, seq } => {
            let _ = write!(out, "\"dst\":{dst},\"bytes\":{bytes},\"seq\":{seq}");
        }
        TraceEvent::MsgRecv { src, seq } => {
            let _ = write!(out, "\"src\":{src},\"seq\":{seq}");
        }
        TraceEvent::RemoteOp {
            kind,
            target,
            seg,
            offset,
            bytes,
            atomic,
        } => {
            let _ = write!(
                out,
                "\"kind\":\"{}\",\"target\":{target},\"seg\":{seg},\"off\":{offset},\
                 \"bytes\":{bytes},\"atomic\":{atomic}",
                kind.name()
            );
        }
        TraceEvent::LocalAccess {
            seg,
            offset,
            bytes,
            write,
            atomic,
        } => {
            let _ = write!(
                out,
                "\"seg\":{seg},\"off\":{offset},\"bytes\":{bytes},\
                 \"write\":{write},\"atomic\":{atomic}"
            );
        }
        TraceEvent::LockAcq { target, set, idx, seq }
        | TraceEvent::LockRel { target, set, idx, seq } => {
            let _ = write!(out, "\"target\":{target},\"set\":{set},\"idx\":{idx},\"seq\":{seq}");
        }
    }
}

/// The parent's `Trace::to_chrome_json`.
pub fn reference_to_chrome_json(t: &Trace) -> String {
    let mut out = String::with_capacity(64 + 96 * t.total_events());
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{{\"name\":\"scioto virtual machine\"}}}}"
    );
    for rank in 0..t.nranks() {
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\
             \"args\":{{\"name\":\"rank {rank}\"}}}}"
        );
    }
    for (rank, events) in t.events.iter().enumerate() {
        for e in events {
            out.push_str(",\n");
            chrome_event(&mut out, rank, e);
        }
    }
    out.push_str("\n],\"sciotoMeta\":{\"dropped\":[");
    for (i, d) in t.dropped.iter().enumerate() {
        let _ = write!(out, "{}{d}", if i == 0 { "" } else { "," });
    }
    out.push_str("],\"final_clock_ns\":[");
    for (i, c) in t.final_clock_ns.iter().enumerate() {
        let _ = write!(out, "{}{c}", if i == 0 { "" } else { "," });
    }
    out.push(']');
    if t.wall_clock {
        out.push_str(",\"clock\":\"wall\"");
    }
    out.push_str("}}\n");
    out
}

/// The parent's `Trace::to_jsonl`.
pub fn reference_to_jsonl(t: &Trace) -> String {
    let mut out = String::with_capacity(64 * t.total_events());
    let _ = write!(out, "{{\"meta\":\"scioto-trace\",\"version\":3,\"ranks\":{}", t.nranks());
    out.push_str(",\"dropped\":[");
    for (i, d) in t.dropped.iter().enumerate() {
        let _ = write!(out, "{}{d}", if i == 0 { "" } else { "," });
    }
    out.push_str("],\"final_clock_ns\":[");
    for (i, c) in t.final_clock_ns.iter().enumerate() {
        let _ = write!(out, "{}{c}", if i == 0 { "" } else { "," });
    }
    out.push(']');
    if t.wall_clock {
        // Wall-clock (concurrent-mode) marker: consumers classify the
        // trace as non-replayable real time. Omitted for virtual-time
        // traces so their exports stay byte-identical.
        out.push_str(",\"clock\":\"wall\"");
    }
    out.push_str("}\n");
    for (rank, per_rank) in t.hists.iter().enumerate() {
        for (name, h) in per_rank {
            let _ = write!(
                out,
                "{{\"hist\":\"{name}\",\"rank\":{rank},\"count\":{},\"sum\":{},\
                 \"min\":{},\"max\":{},\"buckets\":[",
                h.count(),
                h.sum(),
                h.min(),
                h.max()
            );
            for (i, v) in h.sparse_buckets().iter().enumerate() {
                let _ = write!(out, "{}{v}", if i == 0 { "" } else { "," });
            }
            out.push_str("]}\n");
        }
    }
    for (rank, per_rank) in t.gauges.iter().enumerate() {
        for (name, g) in per_rank {
            let _ = write!(
                out,
                "{{\"gauge\":\"{name}\",\"rank\":{rank},\"samples\":{},\"sum\":{},\
                 \"max\":{},\"last\":{}}}\n",
                g.samples, g.sum, g.max, g.last
            );
        }
    }
    let mut args = String::new();
    for (rank, events) in t.events.iter().enumerate() {
        for e in events {
            let _ = write!(out, "{{\"rank\":{rank},\"t\":{},\"ev\":\"{}\"", e.t_ns, e.event.name());
            args.clear();
            write_args(&e.event, &mut args);
            if !args.is_empty() {
                out.push(',');
                out.push_str(&args);
            }
            out.push_str("}\n");
        }
    }
    out
}

/// Format virtual nanoseconds as the fixed-decimal microseconds Chrome's
/// `ts` field expects. Integer arithmetic only, so output is
/// deterministic (no float formatting).
fn ts_us(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000)
}

fn chrome_event(out: &mut String, rank: usize, e: &StampedEvent) {
    let ts = ts_us(e.t_ns);
    match e.event {
        TraceEvent::TaskExecBegin { callback, creator } => {
            let _ = write!(
                out,
                "{{\"name\":\"TaskExec\",\"cat\":\"task\",\"ph\":\"B\",\"ts\":{ts},\
                 \"pid\":0,\"tid\":{rank},\
                 \"args\":{{\"callback\":{callback},\"creator\":{creator}}}}}"
            );
        }
        TraceEvent::StealAttempt { dur_ns, .. }
        | TraceEvent::LockWait { dur_ns, .. }
        | TraceEvent::BarrierWait { dur_ns, .. }
        | TraceEvent::TdProgress { dur_ns } => {
            // Stamped at completion: render as a complete (X) event whose
            // ts is the span start.
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"rt\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{rank}",
                e.event.name(),
                ts_us(e.t_ns.saturating_sub(dur_ns)),
                ts_us(dur_ns)
            );
            let mut args = String::new();
            write_args(&e.event, &mut args);
            if !args.is_empty() {
                let _ = write!(out, ",\"args\":{{{args}}}");
            }
            out.push('}');
        }
        TraceEvent::TaskExecEnd { .. } => {
            let _ = write!(
                out,
                "{{\"name\":\"TaskExec\",\"cat\":\"task\",\"ph\":\"E\",\"ts\":{ts},\
                 \"pid\":0,\"tid\":{rank}}}"
            );
        }
        TraceEvent::QueueDepth { local, shared } => {
            let _ = write!(
                out,
                "{{\"name\":\"queue depth r{rank}\",\"ph\":\"C\",\"ts\":{ts},\
                 \"pid\":0,\"tid\":{rank},\
                 \"args\":{{\"local\":{local},\"shared\":{shared}}}}}"
            );
        }
        ev => {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"rt\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                 \"pid\":0,\"tid\":{rank}",
                ev.name()
            );
            let mut args = String::new();
            write_args(&ev, &mut args);
            if !args.is_empty() {
                let _ = write!(out, ",\"args\":{{{args}}}");
            }
            out.push('}');
        }
    }
}
