//! Critical-path extraction: walk the makespan backward through causal
//! edges and decompose it into categorized segments.
//!
//! The walk starts at the highest final clock (the rank that defines the
//! makespan) and moves backward in virtual time. At every instant it
//! charges the innermost covering span of the current rank and follows
//! **causality edges** at span starts:
//!
//! * a successful steal jumps to the *victim* (the victim's earlier
//!   timeline produced the stolen work);
//! * a lock wait jumps to the lock's home rank (whose critical section
//!   delayed us);
//! * a barrier wait jumps to the episode's last arriver (the rank the
//!   whole machine waited on) at its arrival time;
//! * exec, TD polls, failed steals and idle gaps stay on the same rank.
//!
//! The walk is time-continuous — the segment durations sum exactly to
//! the makespan — so `critical_path_ns == makespan`, and the interesting
//! output is the path's *composition*: how much of the end-to-end time
//! is task execution (inherently serial work), steal/lock/barrier/TD
//! overhead, or idle (parallelism shortage), plus the top-k longest
//! segments. `total_work_ns` is the T1 analogue (the time all ranks
//! spent inside tasks); `parallelism` is their ratio.
//!
//! The walk reads each rank's `Timeline`: the spans and the index
//! that blame reads too, built once per rank per report. The innermost
//! span at an instant follows the one rule in [`crate::timeline`], and a
//! span's edge comes from the event that closed it. A backward step is
//! two binary searches, so the walk costs O((spans + path) · log spans).

use scioto_sim::{Trace, TraceEvent};

use crate::blame::Blame;
use crate::timeline::{Category, Lookup, Timeline};

/// One maximal same-rank, same-category stretch of the critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathSegment {
    /// Rank the path ran on.
    pub rank: u32,
    /// Blame category of this stretch.
    pub cat: Category,
    /// Segment start, virtual ns.
    pub start: u64,
    /// Segment end, virtual ns.
    pub end: u64,
}

impl PathSegment {
    /// Segment length in virtual ns.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the segment covers no time.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Result of the critical-path walk.
#[derive(Clone, Debug, Default)]
pub struct CritPath {
    /// Walk length — equals the makespan by construction.
    pub length_ns: u64,
    /// Time covered by exec spans, summed over all ranks (the T1
    /// analogue).
    pub total_work_ns: u64,
    /// Longest single task execution span anywhere in the trace.
    pub max_task_ns: u64,
    /// Per-category time along the path.
    pub blame: Blame,
    /// Path segments in chronological order (merged).
    pub segments: Vec<PathSegment>,
    /// Set when the walk hit its iteration backstop (malformed trace).
    pub truncated: bool,
}

impl CritPath {
    /// `total_work_ns / length_ns` (0.0 for an empty path): how much
    /// parallelism the workload could sustain if the path were all exec.
    pub fn parallelism(&self) -> f64 {
        if self.length_ns == 0 {
            0.0
        } else {
            self.total_work_ns as f64 / self.length_ns as f64
        }
    }

    /// The `k` longest segments, longest first (ties: earliest first).
    pub fn top_segments(&self, k: usize) -> Vec<PathSegment> {
        let mut v = self.segments.clone();
        v.sort_by(|a, b| b.len().cmp(&a.len()).then(a.start.cmp(&b.start)));
        v.truncate(k);
        v
    }
}

/// Walk `trace` backward from its makespan over its ranks' timelines.
pub(crate) fn walk<L: Lookup>(trace: &Trace, timelines: &[Timeline<L>]) -> CritPath {
    let n = trace.nranks();
    // Each rank's barrier episodes in emission order: (span index, arrival).
    let barriers: Vec<Vec<(usize, u64)>> = timelines
        .iter()
        .map(|tl| {
            let spans = tl.spans.iter().enumerate();
            spans.filter(|(_, s)| s.cat == Category::Barrier).map(|(i, s)| (i, s.start)).collect()
        })
        .collect();
    let max_task_ns = timelines
        .iter()
        .flat_map(|tl| &tl.spans)
        .filter(|s| s.cat == Category::Exec)
        .map(|s| s.len())
        .max()
        .unwrap_or(0);

    let elapsed: Vec<u64> = (0..n).map(|r| trace.elapsed_ns(r)).collect();
    let start_rank = (0..n)
        .max_by_key(|&r| (elapsed[r], std::cmp::Reverse(r)))
        .unwrap_or(0);
    let makespan = elapsed.get(start_rank).copied().unwrap_or(0);

    let mut out = CritPath {
        length_ns: makespan,
        total_work_ns: timelines.iter().map(|tl| tl.exec_ns).sum(),
        max_task_ns,
        ..CritPath::default()
    };

    let mut rank = start_rank;
    let mut t = makespan;
    let budget = 10 * trace.total_events() + 1_000;
    let mut steps = 0usize;
    let mut raw: Vec<PathSegment> = Vec::new();
    while t > 0 {
        steps += 1;
        if steps > budget {
            out.truncated = true;
            // Account the unexplained remainder as idle so the length
            // invariant survives even on malformed traces.
            raw.push(PathSegment { rank: rank as u32, cat: Category::Idle, start: 0, end: t });
            break;
        }
        let tl = &timelines[rank];
        match tl.covering(t) {
            None => {
                // Idle back to the latest span end strictly before `t`.
                let prev_end = tl.prev_end(t);
                raw.push(PathSegment { rank: rank as u32, cat: Category::Idle, start: prev_end, end: t });
                t = prev_end;
            }
            Some(i) => {
                let w = tl.spans[i];
                // The edge comes from the event that closed the span.
                let (next_rank, next_t) = match trace.events_for(rank)[w.event as usize].event {
                    TraceEvent::StealAttempt { victim, got, .. } if got > 0 => (victim as usize % n, w.start),
                    TraceEvent::LockWait { target, .. } => (target as usize % n, w.start),
                    TraceEvent::BarrierWait { .. } => {
                        // Episodes count from the end of each rank's list:
                        // drops truncate rings from the front, and every
                        // rank completes the same trailing episodes.
                        let episodes = &barriers[rank];
                        let pos = episodes.partition_point(|&(j, _)| j < i);
                        blocker_of_episode(&barriers, episodes.len() - 1 - pos, rank, w.start)
                    }
                    _ => (rank, w.start),
                };
                let seg_start = next_t.clamp(w.start, t);
                raw.push(PathSegment { rank: rank as u32, cat: w.cat, start: seg_start, end: t });
                if seg_start < t || next_rank != rank {
                    t = seg_start;
                } else {
                    // Same-rank jump with no time progress: fall back to the
                    // span's own start (strictly < t because the span covers
                    // the instant before t).
                    t = w.start;
                }
                rank = next_rank;
            }
        }
    }

    raw.reverse();
    out.segments = merge_segments(raw);
    // The walk is time-continuous, so these sum to the makespan.
    for s in &out.segments {
        out.blame.charge(s.cat, s.len());
    }
    out
}

/// The rank the machine waited on in barrier episode `from_end` (counted
/// from the back of each rank's episode list) and its arrival time.
/// Falls back to staying put when the episode is unresolvable.
fn blocker_of_episode(
    barriers: &[Vec<(usize, u64)>],
    from_end: usize,
    cur_rank: usize,
    fallback_t: u64,
) -> (usize, u64) {
    let mut best: Option<(u64, usize)> = None;
    for (r, eps) in barriers.iter().enumerate() {
        if eps.len() > from_end {
            let (_, arrival) = eps[eps.len() - 1 - from_end];
            if best.is_none_or(|(ba, br)| arrival > ba || (arrival == ba && r < br)) {
                best = Some((arrival, r));
            }
        }
    }
    match best {
        Some((arrival, r)) => (r, arrival),
        None => (cur_rank, fallback_t),
    }
}

fn merge_segments(raw: Vec<PathSegment>) -> Vec<PathSegment> {
    let mut out: Vec<PathSegment> = Vec::with_capacity(raw.len());
    for s in raw.into_iter().filter(|s| !s.is_empty()) {
        if let Some(last) = out.last_mut() {
            if last.rank == s.rank && last.cat == s.cat && last.end == s.start {
                last.end = s.end;
                continue;
            }
        }
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{LinearScan, SpanIndex};
    use scioto_sim::{StampedEvent, TraceConfig, TraceSink};

    /// The walk over timelines looked up by `L`.
    fn walk_with<L: Lookup>(t: &Trace) -> CritPath {
        let timelines: Vec<Timeline<L>> = (0..t.nranks()).map(|r| Timeline::new(t.events_for(r))).collect();
        walk(t, &timelines)
    }

    fn analyze(t: &Trace) -> CritPath {
        walk_with::<SpanIndex>(t)
    }

    fn trace_of(per_rank: Vec<Vec<StampedEvent>>, clocks: Vec<u64>) -> Trace {
        let sink = TraceSink::new(&TraceConfig::enabled(), per_rank.len());
        for (rank, events) in per_rank.iter().enumerate() {
            for e in events {
                sink.emit(rank, e.t_ns, || e.event);
            }
        }
        let mut t = sink.finish().unwrap();
        t.final_clock_ns = clocks;
        t
    }

    fn ev(t_ns: u64, event: TraceEvent) -> StampedEvent {
        StampedEvent { t_ns, event }
    }

    #[test]
    fn single_rank_path_is_its_own_timeline() {
        let t = trace_of(
            vec![vec![
                ev(10, TraceEvent::TaskExecBegin { callback: 0, creator: 0 }),
                ev(90, TraceEvent::TaskExecEnd { callback: 0 }),
            ]],
            vec![100],
        );
        let cp = analyze(&t);
        assert_eq!(cp.length_ns, 100);
        assert_eq!(cp.total_work_ns, 80);
        assert_eq!(cp.max_task_ns, 80);
        assert!(!cp.truncated);
        assert_eq!(
            cp.segments,
            vec![
                PathSegment { rank: 0, cat: Category::Idle, start: 0, end: 10 },
                PathSegment { rank: 0, cat: Category::Exec, start: 10, end: 90 },
                PathSegment { rank: 0, cat: Category::Idle, start: 90, end: 100 },
            ]
        );
        assert_eq!(cp.blame.get(Category::Exec), 80);
        assert_eq!(cp.blame.get(Category::Idle), 20);
        assert_eq!(cp.blame.total(), cp.length_ns);
    }

    #[test]
    fn successful_steal_jumps_to_victim() {
        // Rank 0 executes [0,50]; rank 1 steals from 0 over [50,60] and
        // executes [60,100]. Path: r0 exec → r1 steal → r1 exec.
        let t = trace_of(
            vec![
                vec![
                    ev(0, TraceEvent::TaskExecBegin { callback: 0, creator: 0 }),
                    ev(50, TraceEvent::TaskExecEnd { callback: 0 }),
                ],
                vec![
                    ev(60, TraceEvent::StealAttempt { victim: 0, got: 1, dur_ns: 10 }),
                    ev(60, TraceEvent::TaskExecBegin { callback: 0, creator: 0 }),
                    ev(100, TraceEvent::TaskExecEnd { callback: 0 }),
                ],
            ],
            vec![50, 100],
        );
        let cp = analyze(&t);
        assert_eq!(cp.length_ns, 100);
        assert_eq!(
            cp.segments,
            vec![
                PathSegment { rank: 0, cat: Category::Exec, start: 0, end: 50 },
                PathSegment { rank: 1, cat: Category::Steal, start: 50, end: 60 },
                PathSegment { rank: 1, cat: Category::Exec, start: 60, end: 100 },
            ]
        );
        assert_eq!(cp.blame.get(Category::Steal), 10);
        assert_eq!(cp.total_work_ns, 90);
        assert!((cp.parallelism() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn barrier_jumps_to_last_arriver() {
        // Rank 1 arrives at 20 and waits to 100; rank 0 arrives at 100
        // (the blocker) after computing. Path must blame rank 0's exec.
        let t = trace_of(
            vec![
                vec![
                    ev(0, TraceEvent::TaskExecBegin { callback: 0, creator: 0 }),
                    ev(100, TraceEvent::TaskExecEnd { callback: 0 }),
                    ev(100, TraceEvent::BarrierWait { dur_ns: 0, epoch: 0 }),
                ],
                vec![ev(100, TraceEvent::BarrierWait { dur_ns: 80, epoch: 0 })],
            ],
            vec![100, 100],
        );
        let cp = analyze(&t);
        // Ties in final clock resolve to the lowest rank (rank 0), whose
        // own timeline is pure exec; walk from rank 1 is exercised via the
        // barrier jump when rank 1 finishes later.
        assert_eq!(cp.length_ns, 100);
        assert_eq!(cp.blame.total(), 100);

        let t2 = trace_of(
            vec![
                vec![
                    ev(0, TraceEvent::TaskExecBegin { callback: 0, creator: 0 }),
                    ev(100, TraceEvent::TaskExecEnd { callback: 0 }),
                    ev(100, TraceEvent::BarrierWait { dur_ns: 0, epoch: 0 }),
                ],
                vec![ev(100, TraceEvent::BarrierWait { dur_ns: 80, epoch: 0 })],
            ],
            vec![100, 110],
        );
        let cp2 = analyze(&t2);
        assert_eq!(cp2.length_ns, 110);
        // The walk starts on rank 1, crosses its barrier wait to rank 0's
        // arrival (t=100), then follows rank 0's exec back to 0.
        assert!(cp2
            .segments
            .iter()
            .any(|s| s.rank == 0 && s.cat == Category::Exec));
        assert_eq!(cp2.blame.total(), 110);
    }

    #[test]
    fn walk_terminates_on_empty_trace() {
        let cp = analyze(&trace_of(vec![vec![], vec![]], vec![0, 0]));
        assert_eq!(cp.length_ns, 0);
        assert!(cp.segments.is_empty());
        assert!(!cp.truncated);
    }

    #[test]
    fn top_segments_sort_by_length() {
        let t = trace_of(
            vec![vec![
                ev(10, TraceEvent::TaskExecBegin { callback: 0, creator: 0 }),
                ev(90, TraceEvent::TaskExecEnd { callback: 0 }),
            ]],
            vec![100],
        );
        let top = analyze(&t).top_segments(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].cat, Category::Exec);
        assert_eq!(top[0].len(), 80);
    }

    /// The indexed walk against the linear-scan oracle, field by field.
    fn assert_matches_oracle(t: &Trace, what: &str) -> CritPath {
        let (got, want) = (walk_with::<SpanIndex>(t), walk_with::<LinearScan>(t));
        assert_eq!(
            (got.length_ns, got.total_work_ns, got.max_task_ns, got.blame, got.truncated),
            (want.length_ns, want.total_work_ns, want.max_task_ns, want.blame, want.truncated),
            "{what}"
        );
        if let Some(i) = (0..got.segments.len().max(want.segments.len()))
            .find(|&i| got.segments.get(i) != want.segments.get(i))
        {
            panic!(
                "{what}: segment {i} differs: index {:?}, oracle {:?}",
                got.segments.get(i),
                want.segments.get(i)
            );
        }
        got
    }

    fn seg(rank: u32, cat: Category, start: u64, end: u64) -> PathSegment {
        PathSegment { rank, cat, start, end }
    }

    #[test]
    fn index_matches_oracle_on_edge_cases() {
        let begin = |t| ev(t, TraceEvent::TaskExecBegin { callback: 0, creator: 0 });
        let end = |t| ev(t, TraceEvent::TaskExecEnd { callback: 0 });
        let td = |t, dur_ns| ev(t, TraceEvent::TdProgress { dur_ns });
        let steal = |t, dur_ns, victim, got| ev(t, TraceEvent::StealAttempt { victim, got, dur_ns });
        let lock = |t, dur_ns| ev(t, TraceEvent::LockWait { target: 0, dur_ns });
        let cases: Vec<(&str, Trace, Vec<PathSegment>)> = vec![
            (
                "nested spans: the innermost one covering t is charged",
                trace_of(vec![vec![begin(0), td(100, 20), end(100)]], vec![100]),
                vec![seg(0, Category::Exec, 0, 80), seg(0, Category::Td, 80, 100)],
            ),
            (
                "equal starts and ends: the span emitted last wins",
                trace_of(vec![vec![steal(20, 10, 0, 0), lock(20, 10)]], vec![20]),
                vec![seg(0, Category::Idle, 0, 10), seg(0, Category::Lock, 10, 20)],
            ),
            (
                "equal starts: the walk lands in the lock wait inside the steal",
                trace_of(vec![vec![lock(15, 5), steal(20, 10, 1, 1)], vec![lock(30, 17)]], vec![20, 30]),
                vec![seg(0, Category::Idle, 0, 10), seg(0, Category::Lock, 10, 13), seg(1, Category::Lock, 13, 30)],
            ),
            (
                "zero-length spans cover nothing",
                trace_of(vec![vec![begin(0), td(50, 0), end(100), td(100, 0)]], vec![100]),
                vec![seg(0, Category::Exec, 0, 100)],
            ),
            (
                "an exec still open at stream end closes at the last stamp",
                trace_of(vec![vec![begin(10), td(50, 5)]], vec![60]),
                vec![
                    seg(0, Category::Idle, 0, 10),
                    seg(0, Category::Exec, 10, 45),
                    seg(0, Category::Td, 45, 50),
                    seg(0, Category::Idle, 50, 60),
                ],
            ),
            (
                "idle gaps fall back to the latest end before t",
                trace_of(vec![vec![td(10, 10), td(30, 5), td(30, 0), td(40, 0)]], vec![50]),
                vec![
                    seg(0, Category::Td, 0, 10),
                    seg(0, Category::Idle, 10, 25),
                    seg(0, Category::Td, 25, 30),
                    seg(0, Category::Idle, 30, 50),
                ],
            ),
            (
                "a span ending exactly at t covers the instant before it",
                trace_of(vec![vec![begin(0), end(70), td(80, 10)]], vec![80]),
                vec![seg(0, Category::Exec, 0, 70), seg(0, Category::Td, 70, 80)],
            ),
            (
                "a successful steal jumps to the victim at the steal's start",
                trace_of(
                    vec![vec![begin(0), end(30), td(45, 5)], vec![steal(50, 10, 0, 1), begin(50), end(90)]],
                    vec![45, 90],
                ),
                vec![
                    seg(0, Category::Exec, 0, 30),
                    seg(0, Category::Idle, 30, 40),
                    seg(1, Category::Steal, 40, 50),
                    seg(1, Category::Exec, 50, 90),
                ],
            ),
            (
                "a barrier wait jumps to the last arriver",
                trace_of(
                    vec![
                        vec![begin(0), end(100), ev(100, TraceEvent::BarrierWait { dur_ns: 0, epoch: 0 })],
                        vec![ev(100, TraceEvent::BarrierWait { dur_ns: 80, epoch: 0 }), td(110, 10)],
                    ],
                    vec![100, 110],
                ),
                vec![seg(0, Category::Exec, 0, 100), seg(1, Category::Td, 100, 110)],
            ),
        ];
        for (what, trace, want) in cases {
            let cp = assert_matches_oracle(&trace, what);
            assert_eq!(cp.segments, want, "{what}");
            assert_eq!(cp.blame.total(), cp.length_ns, "{what}");
        }
    }

    /// A seeded random trace: spans on each rank that nest, overlap,
    /// share starts and ends, have zero length or stay open, with
    /// steal, lock and barrier jumps between ranks.
    fn random_trace(seed: u64, ranks: usize, per_rank: usize) -> Trace {
        let mut r = crate::jsonl::tests::Mix(seed);
        let per_rank: Vec<Vec<StampedEvent>> = (0..ranks)
            .map(|_| {
                let mut t = 0u64;
                (0..per_rank)
                    .map(|_| {
                        t += [0, 0, 1, 3, 10][r.below(5)];
                        let dur_ns = (r.below(25) as u64).min(t);
                        let rank = r.below(ranks) as u32;
                        let event = match r.below(7) {
                            0 | 1 => TraceEvent::TaskExecBegin { callback: 0, creator: 0 },
                            2 => TraceEvent::TaskExecEnd { callback: 0 },
                            3 => TraceEvent::StealAttempt { victim: rank, got: r.below(2) as u32, dur_ns },
                            4 => TraceEvent::LockWait { target: rank, dur_ns },
                            5 => TraceEvent::BarrierWait { dur_ns, epoch: 0 },
                            _ => TraceEvent::TdProgress { dur_ns },
                        };
                        ev(t, event)
                    })
                    .collect()
            })
            .collect();
        let clocks = match r.below(3) {
            // Each rank's last stamp: spans end exactly at the walk's start.
            0 => Vec::new(),
            _ => per_rank
                .iter()
                .map(|evs| evs.last().map_or(0, |e| e.t_ns) + r.below(3) as u64)
                .collect(),
        };
        trace_of(per_rank, clocks)
    }

    #[test]
    fn index_matches_oracle_on_seeded_random_traces() {
        for seed in 0..300 {
            let ranks = 1 + seed as usize % 4;
            let t = random_trace(seed, ranks, 1 + (seed as usize * 7) % 120);
            assert_matches_oracle(&t, &format!("seed {seed}"));
        }
    }

    #[test]
    fn index_matches_oracle_on_recorded_uts_runs() {
        use crate::timeline::tests::uts_recording;
        use scioto::VictimPolicy::{Locality, Uniform};
        use scioto_sim::{LatencyModel, MachineConfig};
        use scioto_uts::presets::{small, tiny};
        let cluster = |ranks| MachineConfig::virtual_time(ranks).with_latency(LatencyModel::cluster());
        let runs = [
            ("tiny, 1 virtual-time rank", MachineConfig::virtual_time(1), tiny(), Locality),
            ("tiny, 4 virtual-time ranks", MachineConfig::virtual_time(4), tiny(), Locality),
            ("tiny, 16 virtual-time ranks", MachineConfig::virtual_time(16), tiny(), Locality),
            ("small, 16 virtual-time ranks", MachineConfig::virtual_time(16), small(), Locality),
            ("tiny, 16 cluster ranks, uniform victims", cluster(16), tiny(), Uniform),
            ("tiny, 2 concurrent ranks", MachineConfig::concurrent(2), tiny(), Locality),
        ];
        for (seed, (what, cfg, tree, victim)) in runs.into_iter().enumerate() {
            let t = uts_recording(cfg.with_seed(0xC0FFEE + seed as u64), tree, victim);
            assert_eq!(t.dropped.iter().sum::<u64>(), 0, "{what}");
            let cp = assert_matches_oracle(&t, what);
            assert_eq!(cp.length_ns, (0..t.nranks()).map(|r| t.elapsed_ns(r)).max().unwrap(), "{what}");
            assert!(!cp.truncated, "{what}");
        }
    }

    /// The shape of a 2-rank real-thread UTS recording, at its size:
    /// 200 k task spans per rank, each followed by a failed steal and a
    /// termination poll. A walk that rescans the rank's spans at every
    /// step takes minutes here; the indexed walk is near-linear.
    #[test]
    fn walk_is_near_linear_on_a_conc_p2_shaped_recording() {
        const TASKS: u64 = 200_000;
        // Per 100 ns period: exec 60, steal 15, td 15, idle 10.
        let rank = |victim: u32, offset: u64| -> Vec<StampedEvent> {
            (0..TASKS)
                .flat_map(|k| {
                    let t0 = k * 100 + offset;
                    [
                        ev(t0, TraceEvent::TaskExecBegin { callback: 0, creator: 0 }),
                        ev(t0 + 60, TraceEvent::TaskExecEnd { callback: 0 }),
                        ev(t0 + 75, TraceEvent::StealAttempt { victim, got: 0, dur_ns: 15 }),
                        ev(t0 + 90, TraceEvent::TdProgress { dur_ns: 15 }),
                    ]
                })
                .collect()
        };
        let makespan = TASKS * 100;
        let trace = Trace {
            events: vec![rank(1, 0), rank(0, 5)],
            dropped: vec![0, 0],
            final_clock_ns: vec![makespan, makespan - 1],
            wall_clock: true,
            gauges: vec![Default::default(); 2],
        };
        let cp = analyze(&trace);
        assert!(!cp.truncated);
        assert_eq!(cp.length_ns, makespan);
        assert_eq!(cp.blame.total(), makespan);
        // Rank 0 defines the makespan and no step leaves it: exec,
        // steal, td and idle once per period.
        assert_eq!(cp.segments.len() as u64, 4 * TASKS);
        assert_eq!(cp.blame.get(Category::Exec), 60 * TASKS);
        assert_eq!(cp.blame.get(Category::Idle), 10 * TASKS);
        assert_eq!(cp.total_work_ns, 2 * 60 * TASKS);
    }
}
