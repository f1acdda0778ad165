//! The recorder coalesces a rank's `LocalAccess` records into one summary
//! per `(seg, write, atomic)` word range and window between flushing
//! events ([`scioto_sim::coalesce`]). These tests hold every checker to
//! the same verdict on a raw stream and its coalesced form: seeded random
//! traces, seeded well-formed programs, and recorded UTS runs whose
//! summaries are split back into shuffled single-word records.
//!
//! What may differ is what names an event rather than judges it: event
//! counts and indices, the stamps of local accesses, and which raced pair
//! of a site pair a finding names first — a summary list orders a
//! window's accesses by word, not by program order, so the first pair to
//! hit can be another pair of the same two sites. The verdict is the
//! rest: every finding's owner, segment, exact word set and both sites,
//! the sync-edge, word, lock-edge and protocol-word counts, the violated
//! protocol words with their writers and failed shapes, the deadlock
//! cycles, and whether the trace lowers for replay.
//!
//! The same corpora hold the race checkers' run frontier to the per-word
//! frontier it replaced ([`crate::fold::WordFrontier`]): there nothing may
//! differ, down to each finding's first pair and word count.

use scioto_analyze::lower;
use scioto_sim::{coalesce, RemoteOpKind, StampedEvent, Trace, TraceEvent};

use crate::fixtures::random_trace;
use crate::fold::{Frontier, Lockstep, WordFrontier};
use crate::hb::AccessInfo;
use crate::predict::predict_with;
use crate::{check_all, check_deadlocks, check_trace, predict};

/// `trace` with every rank's stream coalesced as the recorder does it.
fn coalesced(trace: &Trace) -> Trace {
    let mut out = trace.clone();
    for events in &mut out.events {
        *events = coalesce(events).0;
    }
    out
}

/// `text` with the digits after each `event ` / `event #` masked: event
/// indices differ between a raw stream and its summaries.
fn mask_event_indices(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find("event ") {
        let (head, tail) = rest.split_at(at + "event ".len());
        out.push_str(head);
        let tail = tail.strip_prefix('#').map_or(tail, |t| {
            out.push('#');
            t
        });
        let digits = tail.len() - tail.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if digits > 0 {
            out.push('_');
        }
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

fn site(a: &AccessInfo) -> String {
    format!("rank {} {} write={} atomic={}", a.rank, a.op, a.write, a.atomic)
}

/// Everything the three checkers judge about `trace`, as text.
fn verdicts(trace: &Trace) -> String {
    let mut out = String::new();
    match check_trace(trace) {
        Ok(hb) => {
            let mut races: Vec<String> = hb
                .races
                .iter()
                .map(|r| {
                    let (owner, seg, words) = (r.owner, r.seg, (r.word, r.word_hi, r.word_count));
                    let sites = (site(&r.first), site(&r.second));
                    format!("race {owner}/{seg} words {words:?} {sites:?}")
                })
                .collect();
            races.sort();
            out += &format!("hb: {} sync edges, {} words\n", hb.sync_edges, hb.words);
            out += &races.join("\n");
        }
        Err(e) => out += &format!("hb error: {}\n", mask_event_indices(&e)),
    }
    match predict(trace) {
        Ok(p) => {
            let mut races: Vec<String> = p
                .predicted
                .iter()
                .map(|p| {
                    let r = &p.race;
                    let (owner, seg, words) = (r.owner, r.seg, (r.word, r.word_hi, r.word_count));
                    let sites = (site(&r.first), site(&r.second));
                    format!("predicted {owner}/{seg} words {words:?} {sites:?}")
                })
                .collect();
            races.sort();
            out += &format!(
                "\npredict: {} lock edges, {} dropped, {} protocol words\n",
                p.lock_edges, p.dropped_edges, p.protocol_words
            );
            out += &races.join("\n");
            for v in &p.atomicity {
                // Which unmarked access a window names first is program
                // order within the window; that it exists, and its rank,
                // are the verdict.
                let detail = v.detail.replace("unmarked write by", "unmarked by");
                let detail = detail.replace("unmarked read by", "unmarked by");
                out += &format!(
                    "\natomicity {}/{} word {} writers {:?}: {}",
                    v.owner,
                    v.seg,
                    v.word,
                    v.writers,
                    mask_event_indices(&detail)
                );
            }
        }
        Err(e) => out += &format!("\npredict error: {}", mask_event_indices(&e)),
    }
    match check_deadlocks(trace) {
        Ok(mut d) => {
            for w in d.cycles.iter_mut().flat_map(|c| &mut c.witnesses) {
                (w.held_ev, w.req_ev) = (0, 0);
            }
            out += &format!("\ndeadlock: {} nodes, {} edges, {:?}", d.nodes, d.edges, d.cycles);
        }
        Err(e) => out += &format!("\ndeadlock error: {}", mask_event_indices(&e)),
    }
    let lowers = !trace.wall_clock && !trace.final_clock_ns.is_empty();
    if lowers {
        out += &format!("\nlowers: {}", lower(trace).is_ok());
    }
    out
}

/// Coalescing `raw` changes no verdict; returns the raw verdicts.
fn assert_same_verdicts(raw: &Trace, what: &str) -> String {
    let want = verdicts(raw);
    assert_eq!(verdicts(&coalesced(raw)), want, "{what}");
    want
}

/// SplitMix64: the seeded stream the generators draw from.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flag(&mut self) -> bool {
        self.below(2) == 0
    }
}

/// A seeded well-formed program: two to four ranks interleaved by one
/// sequential schedule, so every lock generation, message and barrier
/// epoch pairs up and the sync walk finishes. Windows of local accesses —
/// whole and part words, plain and marked, reads and writes, on two
/// segments — alternate with every flushing kind, and remote operations
/// touch the same words.
fn random_program(seed: u64) -> Trace {
    let r = &mut Mix(seed);
    let n = 2 + r.below(3) as usize;
    let mut events: Vec<Vec<StampedEvent>> = vec![Vec::new(); n];
    let mut clock = vec![0u64; n];
    // Per mutex: its holder, its last generation and that one's release.
    let (mut holder, mut generation, mut released) = ([None::<usize>; 2], [0u64; 2], [0u64; 2]);
    let mut seq = vec![0u64; n];
    let mut epoch = 0;
    let emit = |events: &mut Vec<Vec<StampedEvent>>, rank: usize, t_ns: u64, event| {
        events[rank].push(StampedEvent { t_ns, event });
    };
    for _ in 0..60 + r.below(200) {
        let me = r.below(n as u64) as usize;
        clock[me] += r.below(3);
        let mut t = clock[me];
        let event = match r.below(16) {
            0..=7 => TraceEvent::LocalAccess {
                seg: r.below(2) as u32,
                offset: 4 * r.below(12),
                bytes: [4, 8, 8, 16][r.below(4) as usize],
                write: r.flag(),
                atomic: r.below(3) == 0,
            },
            8 => TraceEvent::RemoteOp {
                kind: [RemoteOpKind::Put, RemoteOpKind::Get, RemoteOpKind::Acc, RemoteOpKind::Rmw]
                    [r.below(4) as usize],
                target: r.below(n as u64) as u32,
                seg: r.below(2) as u32,
                offset: 8 * r.below(6),
                bytes: 8,
                atomic: r.flag(),
            },
            9 => match r.below(3) {
                0 => TraceEvent::TaskExecBegin { callback: 0, creator: me as u32 },
                1 => TraceEvent::TaskExecEnd { callback: 0 },
                _ => TraceEvent::QueueDepth { local: 1, shared: 0 },
            },
            10 | 11 => {
                let m = r.below(2) as usize;
                let (idx, seq) = (m as u32, generation[m] + 1);
                match holder[m] {
                    None => {
                        (generation[m], holder[m]) = (seq, Some(me));
                        t = t.max(released[m]);
                        clock[me] = t;
                        TraceEvent::LockAcq { target: 0, set: 0, idx, seq }
                    }
                    Some(h) if h == me => {
                        (holder[m], released[m]) = (None, t);
                        TraceEvent::LockRel { target: 0, set: 0, idx, seq: seq - 1 }
                    }
                    Some(_) => continue,
                }
            }
            12 => {
                let dst = r.below(n as u64) as usize;
                if dst == me {
                    continue;
                }
                seq[dst] += 1;
                emit(&mut events, me, t, TraceEvent::MsgSend { dst: dst as u32, bytes: 8, seq: seq[dst] });
                clock[dst] = clock[dst].max(t) + 1;
                let recv = TraceEvent::MsgRecv { src: me as u32, seq: seq[dst] };
                emit(&mut events, dst, clock[dst], recv);
                continue;
            }
            13 if r.below(4) == 0 => {
                // Every rank arrives at its own clock and leaves at the
                // release, its wait a span that starts at its arrival.
                epoch += 1;
                let release = clock.iter().max().copied().unwrap_or(0) + 1 + r.below(5);
                for (rank, c) in clock.iter_mut().enumerate() {
                    let wait = TraceEvent::BarrierWait { dur_ns: release - *c, epoch };
                    emit(&mut events, rank, release, wait);
                    *c = release;
                }
                continue;
            }
            _ => {
                let dur_ns = r.below(4);
                clock[me] += dur_ns;
                let event = match r.below(4) {
                    0 => TraceEvent::TdProgress { dur_ns },
                    1 => TraceEvent::StealAttempt { victim: 0, got: 0, dur_ns },
                    2 => TraceEvent::LockWait { target: 0, dur_ns },
                    _ => TraceEvent::SplitRelease { moved: 1 },
                };
                emit(&mut events, me, clock[me], event);
                continue;
            }
        };
        emit(&mut events, me, t, event);
    }
    for (m, h) in holder.iter().enumerate() {
        if let Some(h) = *h {
            let rel = TraceEvent::LockRel { target: 0, set: 0, idx: m as u32, seq: generation[m] };
            emit(&mut events, h, clock[h], rel);
        }
    }
    Trace {
        events,
        dropped: vec![0; n],
        final_clock_ns: clock,
        wall_clock: false,
        gauges: vec![Default::default(); n],
    }
}

#[test]
fn coalescing_keeps_every_verdict_on_seeded_random_traces() {
    for seed in 0..2_000 {
        assert_same_verdicts(&random_trace(seed), &format!("random trace {seed}"));
    }
}

#[test]
fn coalescing_keeps_every_verdict_on_seeded_programs() {
    let (mut races, mut predicted, mut atomicity, mut lowered) = (0, 0, 0, 0);
    for seed in 0..1_500 {
        let raw = random_program(seed);
        let v = assert_same_verdicts(&raw, &format!("program {seed}"));
        races += v.matches("\nrace ").count();
        predicted += v.matches("\npredicted ").count();
        atomicity += v.matches("\natomicity ").count();
        lowered += usize::from(v.contains("lowers: true"));
    }
    // The corpus judges findings of every kind, not only clean traces.
    assert!(races > 1_000 && predicted > 50 && atomicity > 1_000, "{races} {predicted} {atomicity}");
    assert_eq!(lowered, 1_500, "every program lowers for replay");
}

/// `trace`'s `LocalAccess` summaries split back into single-word records,
/// each window's shuffled and some repeated: one raw stream the recorder
/// could have been offered.
fn exploded(trace: &Trace, seed: u64) -> Trace {
    let r = &mut Mix(seed);
    let mut out = trace.clone();
    for (events, recorded) in out.events.iter_mut().zip(&trace.events) {
        events.clear();
        let mut window: Vec<StampedEvent> = Vec::new();
        for (i, e) in recorded.iter().enumerate() {
            if let TraceEvent::LocalAccess { seg, offset, bytes, write, atomic } = e.event {
                for word in (offset..offset + u64::from(bytes)).step_by(8) {
                    for _ in 0..1 + r.below(2) {
                        let event = TraceEvent::LocalAccess { seg, offset: word, bytes: 8, write, atomic };
                        window.push(StampedEvent { t_ns: e.t_ns, event });
                    }
                }
            } else {
                events.push(*e);
            }
            let window_ends = !matches!(
                recorded.get(i + 1).map(|e| e.event),
                Some(TraceEvent::LocalAccess { .. })
            );
            if window_ends {
                for k in (1..window.len()).rev() {
                    window.swap(k, r.below(k as u64 + 1) as usize);
                }
                events.append(&mut window);
            }
        }
    }
    out
}

/// The three recorded UTS runs of the `tiny` tree, the `k`-th set of
/// machine seeds: 4 and 16 virtual-time ranks and 2 concurrent ones.
fn recorded_uts_runs(k: u64) -> Vec<(&'static str, Trace)> {
    use scioto_sim::{Machine, MachineConfig, TraceConfig};
    use scioto_uts::presets::tiny;
    use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
    let runs = [
        ("4 virtual-time ranks", MachineConfig::virtual_time(4)),
        ("16 virtual-time ranks", MachineConfig::virtual_time(16)),
        ("2 concurrent ranks", MachineConfig::concurrent(2)),
    ];
    let runs = runs.into_iter().enumerate().map(|(i, (what, cfg))| {
        let seed = 0xC0A1 + 3 * k + i as u64;
        let cfg = cfg.with_seed(seed).with_trace(TraceConfig::enabled().with_capacity(1 << 22));
        let run = Machine::run(cfg, |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(tiny())).0);
        (what, run.report.trace.expect("tracing was enabled"))
    });
    runs.collect()
}

#[test]
fn coalescing_keeps_every_verdict_on_recorded_uts_runs() {
    for (seed, (what, recorded)) in recorded_uts_runs(0).into_iter().enumerate() {
        let raw = exploded(&recorded, seed as u64);
        assert!(raw.total_events() > recorded.total_events(), "{what}");
        // The recording is what its raw stream coalesces to, and judges alike.
        assert_eq!(coalesced(&raw).events, recorded.events, "{what}");
        let v = assert_same_verdicts(&raw, what);
        assert!(v.contains("deadlock: ") && !v.contains("error"), "{what}: {v}");
        assert!(recorded.wall_clock || v.contains("lowers: true"), "{what}: {v}");
    }
}

/// The run frontier and the per-word one it replaced give `trace` the same
/// reports, field for field: every finding with its first pair and word
/// range and count, and the word, sync-edge and lock-edge counts.
fn assert_reports_agree(trace: &Trace, what: &str) {
    let runs = format!("{:?}", predict_with::<Frontier>(trace, true));
    assert_eq!(runs, format!("{:?}", predict_with::<WordFrontier>(trace, true)), "{what}");
}

/// The two frontiers, driven in lockstep by the happens-before walk of
/// `trace`, meet every access with the same priors: the hits both
/// checkers' reports are made of, before any judgement.
fn assert_hits_agree(trace: &Trace, what: &str) {
    let walked =
        std::panic::catch_unwind(|| predict_with::<Lockstep>(trace, false).map(|(r, _)| r.words));
    assert!(walked.is_ok(), "{what}: the frontiers' hits differ");
}

/// `agree` on every corpus above, `scale` times over: seeded random
/// traces, seeded programs, and recorded UTS runs both raw and coalesced;
/// the seeds are dealt round-robin to one thread per core (at most four).
fn on_every_corpus(scale: u64, agree: fn(&Trace, &str)) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|s| {
        for first in 0..threads {
            s.spawn(move || {
                let seeds = |n: u64| (first as u64..n).step_by(threads);
                for seed in seeds(2_000 * scale) {
                    agree(&random_trace(seed), &format!("random trace {seed}"));
                }
                for seed in seeds(1_500 * scale) {
                    agree(&random_program(seed), &format!("program {seed}"));
                }
                for k in seeds(scale) {
                    for (i, (what, recorded)) in recorded_uts_runs(k).into_iter().enumerate() {
                        let what = format!("{what} (seed set {k})");
                        agree(&exploded(&recorded, 3 * k + i as u64), &format!("{what}, raw"));
                        agree(&recorded, &what);
                    }
                }
            });
        }
    });
}

#[test]
fn the_run_frontier_reports_what_the_word_frontier_did() {
    on_every_corpus(1, |trace, what| {
        assert_hits_agree(trace, what);
        assert_reports_agree(trace, what);
    });
}

/// [`the_run_frontier_reports_what_the_word_frontier_did`] with twenty
/// times the seeds; `scripts/verify.sh` runs it in its stress stage. It
/// compares the hits, from which both reports follow (the test above
/// holds them to that): twenty times the reports themselves, attribution
/// and all, would take most of the stage's budget.
#[test]
#[ignore = "20x the oracle corpora; scripts/verify.sh runs it in release"]
fn stress_the_run_frontier_reports_what_the_word_frontier_did() {
    on_every_corpus(20, assert_hits_agree);
}

/// The verdict's one walk reports what the three calls `perf/` times one
/// by one do, to the last field: the happens-before fold is relation 0 of
/// the predictive one, and folding the weak relation beside it changes
/// nothing of it.
#[test]
fn the_one_walk_reports_what_the_three_calls_do() {
    on_every_corpus(1, |trace, what| {
        let three = || -> Result<_, String> {
            Ok((check_trace(trace)?, predict(trace)?, check_deadlocks(trace)?))
        };
        assert_eq!(format!("{:?}", check_all(trace)), format!("{:?}", three()), "{what}");
    });
}

/// A consistent two-rank recording with every sync kind: a message, a
/// lock hand-off, a barrier, and a park/wake pair.
fn rich_trace() -> Trace {
    use scioto_sim::{TraceConfig, TraceSink};
    let lock = |seq, acquire| match acquire {
        true => TraceEvent::LockAcq { target: 1, set: 0, idx: 0, seq },
        false => TraceEvent::LockRel { target: 1, set: 0, idx: 0, seq },
    };
    let ranks = [
        vec![
            (50, lock(1, true)),
            (80, lock(1, false)),
            (100, TraceEvent::MsgSend { dst: 1, bytes: 8, seq: 1 }),
            (150, TraceEvent::Unblock { target: 1 }),
            (200, TraceEvent::BarrierWait { dur_ns: 40, epoch: 1 }),
        ],
        vec![
            (90, TraceEvent::Block),
            (130, TraceEvent::MsgRecv { src: 0, seq: 1 }),
            (170, lock(2, true)),
            (175, lock(2, false)),
            (200, TraceEvent::BarrierWait { dur_ns: 10, epoch: 1 }),
        ],
    ];
    let sink = TraceSink::new(&TraceConfig::enabled(), ranks.len());
    for (rank, events) in ranks.iter().enumerate() {
        for &(t_ns, e) in events {
            sink.emit(rank, t_ns, || e);
        }
    }
    let mut t = sink.finish().expect("tracing was enabled");
    t.final_clock_ns = vec![210, 205];
    t
}

/// The recordings the corruption fuzz edits: [`rich_trace`], a Scioto UTS
/// run (lock generations, barriers, TD waves, park/wake pairs) and an MPI
/// work-stealing UTS run (message sequence numbers).
fn corruption_corpus() -> Vec<Trace> {
    use scioto_sim::{Machine, MachineConfig, TraceConfig};
    use scioto_uts::mpi_ws::{run_mpi_uts, MpiUtsConfig};
    use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};
    let tree = scioto_uts::presets::tiny();
    let cfg = |n, seed| MachineConfig::virtual_time(n).with_seed(seed).with_trace(TraceConfig::enabled());
    let uts = Machine::run(cfg(8, 7), move |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(tree)).0);
    let mpi = Machine::run(cfg(4, 5), move |ctx| run_mpi_uts(ctx, &MpiUtsConfig::new(tree)).0);
    let recorded = [uts, mpi].map(|run| run.report.trace.expect("tracing was enabled"));
    [vec![rich_trace()], recorded.to_vec()].concat()
}

/// Every `(rank, index)` whose event `keep` accepts.
fn positions(t: &Trace, keep: impl Fn(&TraceEvent) -> bool) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (rank, events) in t.events.iter().enumerate() {
        let kept = (0..events.len()).filter(|&i| keep(&events[i].event));
        out.extend(kept.map(|i| (rank, i)));
    }
    out
}

const CORRUPTIONS: usize = 12;

/// Apply corruption `kind` to `t` at a seeded position; `false` when `t`
/// holds nothing it applies to. Each leaves `t` malformed or unwalkable:
/// a sync edge loses its producer or its consumer, a producer key
/// repeats, a barrier episode loses or gains a rank, a rank's stamps stop
/// being monotone, or its final clock falls before its last event.
fn corrupt(t: &mut Trace, kind: usize, r: &mut Mix) -> bool {
    use std::collections::HashSet;
    // The lock generations acquired and the messages received.
    let (mut acquired, mut received) = (HashSet::new(), HashSet::new());
    for (rank, events) in t.events.iter().enumerate() {
        for e in events {
            match e.event {
                TraceEvent::LockAcq { target, set, idx, seq } => {
                    acquired.insert((target, set, idx, seq));
                }
                TraceEvent::MsgRecv { seq, .. } => {
                    received.insert((rank as u32, seq));
                }
                _ => {}
            }
        }
    }
    let handed_on = |e: &TraceEvent| match *e {
        TraceEvent::LockRel { target, set, idx, seq } => {
            acquired.contains(&(target, set, idx, seq + 1))
        }
        _ => false,
    };
    let delivered = |e: &TraceEvent| match *e {
        TraceEvent::MsgSend { dst, seq, .. } => received.contains(&(dst, seq)),
        _ => false,
    };
    let barrier = |e: &TraceEvent| matches!(e, TraceEvent::BarrierWait { .. });
    let candidates = match kind {
        0 | 9 => positions(t, handed_on),
        1 | 2 | 11 => positions(t, delivered),
        3 | 4 => positions(t, barrier),
        5 | 6 => positions(t, |_| true)
            .into_iter()
            .filter(|&(rank, i)| i > 0 && t.events[rank][i - 1].t_ns < t.events[rank][i].t_ns)
            .collect(),
        7 => (0..t.nranks())
            .filter(|&rank| t.events[rank].last().is_some_and(|e| e.t_ns > 0))
            .map(|rank| (rank, 0))
            .collect(),
        8 => positions(t, |e| matches!(*e, TraceEvent::LockAcq { seq: 2.., .. })),
        _ => positions(t, |e| matches!(e, TraceEvent::MsgRecv { .. })),
    };
    if candidates.is_empty() {
        return false;
    }
    let (rank, i) = candidates[r.below(candidates.len() as u64) as usize];
    // A generation or sequence number no recording reaches.
    let far = (1 << 40) + r.next() % (1 << 20);
    let events = &mut t.events[rank];
    match kind {
        // Drop a lock release, a delivered message's send, a barrier.
        0 | 1 | 3 => drop(events.remove(i)),
        // Duplicate a send or a barrier wait.
        2 | 4 => events.insert(i, events[i]),
        // Swap an event with its earlier predecessor.
        5 => events.swap(i - 1, i),
        // Retime an event to before its predecessor.
        6 => events[i].t_ns = r.next() % events[i - 1].t_ns.max(1),
        // Retime the rank's final clock to before its last event.
        7 => {
            let last = events.last().expect("a last event").t_ns;
            t.final_clock_ns[rank] = r.next() % last;
        }
        _ => match &mut events[i].event {
            TraceEvent::LockAcq { seq, .. }
            | TraceEvent::LockRel { seq, .. }
            | TraceEvent::MsgRecv { seq, .. }
            | TraceEvent::MsgSend { seq, .. } => *seq = far,
            other => unreachable!("no sequence number in {other:?}"),
        },
    }
    true
}

/// 1 200 seeded corruptions of the recordings, every one refused by the
/// sync walk and by the verdict, as by the replay lowering; 600 free edits
/// that may leave a recording well-formed, any outcome but a panic.
#[test]
fn corrupted_recordings_are_refused_without_panicking() {
    let corpus = corruption_corpus();
    let r = &mut Mix(0x10E5);
    let mut refused = [0usize; CORRUPTIONS];
    for case in 0..1_200 {
        let which = case % corpus.len();
        let mut t = corpus[which].clone();
        let kind = r.below(CORRUPTIONS as u64) as usize;
        if corrupt(&mut t, kind, r) {
            assert!(lower(&t).is_err(), "corruption {kind} of recording {which} lowered");
            let walked = scioto_analyze::sync::walk(&t, |_| {});
            assert!(walked.is_err(), "corruption {kind} of recording {which} walked");
            assert!(check_all(&t).is_err(), "corruption {kind} of recording {which} was judged");
            refused[kind] += 1;
        }
    }
    assert!(refused.iter().all(|&n| n >= 20), "refused per kind: {refused:?}");
    for case in 0..600 {
        let mut t = corpus[case % corpus.len()].clone();
        let rank = r.below(t.nranks() as u64) as usize;
        let events = &mut t.events[rank];
        if events.is_empty() {
            continue;
        }
        let i = r.below(events.len() as u64) as usize;
        match r.below(4) {
            0 => drop(events.remove(i)),
            1 => events.insert(i, events[i]),
            2 => events[i].t_ns = r.next() >> r.below(64),
            _ => {
                let j = r.below(events.len() as u64) as usize;
                events.swap(i, j);
            }
        }
        let _ = (lower(&t), scioto_analyze::sync::walk(&t, |_| {}), check_all(&t));
    }
}
