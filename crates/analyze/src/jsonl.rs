//! Re-parse a JSONL trace export (`Trace::to_jsonl`) back into a
//! [`Trace`], so analysis can run on files as well as in-memory traces.
//!
//! The reader is a purpose-built flat-JSON scanner (the build is
//! hermetic — no serde): each line is one object whose values are
//! unsigned integers, strings, booleans or arrays of unsigned integers,
//! which covers everything the exporter emits. Events, metric registries
//! (histograms and gauges), drop counts and final clocks all round-trip
//! exactly: re-exporting a parsed trace is byte-identical.

use std::collections::BTreeMap;

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

/// Parse `body` (the full JSONL text) into a [`Trace`].
pub fn parse(body: &str) -> Result<Trace, String> {
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
    let ranks = get_num(meta, "ranks").ok_or("line 1: meta lacks \"ranks\"")? as usize;
    if ranks == 0 {
        return Err("line 1: meta declares 0 ranks".into());
    }
    let dropped = get_arr(meta, "dropped").unwrap_or_else(|| vec![0; ranks]);
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
    if dropped.len() != ranks {
        return Err(format!(
            "line 1: dropped has {} entries for {ranks} ranks",
            dropped.len()
        ));
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{TraceConfig, TraceSink};

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
        sink.hist(0, "task_exec_ns", 30);
        sink.hist(0, "task_exec_ns", 4_000);
        sink.hist(1, "steal_rtt_ns", 30_000);
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
        assert_eq!(parsed.hists, t.hists);
        assert_eq!(parsed.gauges, t.gauges);
        let h = &parsed.hists[0]["task_exec_ns"];
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (2, 4_030, 30, 4_000));
        let g = parsed.gauges[1]["queue_local"];
        assert_eq!((g.samples, g.sum, g.max, g.last), (1, 7, 7, 7));
    }

    #[test]
    fn malformed_histogram_line_is_an_error() {
        let t = sample_trace();
        let mut body = t.to_jsonl();
        // A ragged (odd-length) bucket pair array must be rejected.
        body.push_str(
            "{\"hist\":\"bad\",\"rank\":0,\"count\":1,\"sum\":1,\"min\":1,\"max\":1,\"buckets\":[1]}\n",
        );
        let err = parse(&body).unwrap_err();
        assert!(err.contains("malformed histogram bad"), "{err}");
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
        // A 32-bit field of 1 << 32 is malformed, not rank/lock 0.
        let lines = t.to_jsonl().lines().count();
        for (ev, rest) in [
            ("StealAttempt", "\"victim\":4294967296,\"got\":0,\"dur\":5"),
            ("LockAcq", "\"target\":0,\"set\":0,\"idx\":4294967296,\"seq\":1"),
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
}
