//! The census of a trace, which opens the report's text: events per rank
//! and per kind, digests of the durations the events carry, and each
//! gauge over all ranks. The exec and steal digests read the spans blame
//! charges ([`crate::timeline`]), so both pair a task's begin and end by
//! one rule: a begin the trace never ends closes at its rank's last stamp.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use scioto_sim::{Gauge, Trace, TraceEvent, WaveDir, MERGED_GAUGE};

use crate::timeline::{Category, Timeline};

/// Count, sum, maximum and power-of-two histogram of duration samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Number of samples.
    pub count: u64,
    /// Sum of the samples (saturating).
    pub sum: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Bucket `k > 0` counts the samples in `[2^(k-1), 2^k - 1]`, bucket
    /// 0 the zeros.
    buckets: [u64; 65],
}

impl Default for Digest {
    fn default() -> Self {
        Digest { count: 0, sum: 0, max: 0, buckets: [0; 65] }
    }
}

impl Digest {
    fn add(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
        self.buckets[(u64::BITS - v.leading_zeros()) as usize] += 1;
    }

    /// The median (the ⌈n/2⌉-th smallest sample) rounded up to the end of
    /// its power-of-two bucket, capped at the largest sample. 0 when empty.
    pub fn p50_upper(&self) -> u64 {
        let mut rank = self.count.div_ceil(2);
        for (k, &c) in self.buckets.iter().enumerate() {
            if c >= rank {
                return u64::MAX.checked_shr(u64::BITS - k as u32).unwrap_or(0).min(self.max);
            }
            rank -= c;
        }
        unreachable!("the buckets count every sample")
    }
}

/// What one trace holds, counted.
#[derive(Clone, Debug, Default)]
pub struct Census {
    /// Events retained per rank.
    pub events: Vec<u64>,
    /// Events per kind, indexed like [`TraceEvent::NAMES`].
    pub kinds: [u64; TraceEvent::NAMES.len()],
    /// Steal-attempt round trips: the `Steal` spans.
    pub steal_rtt_ns: Digest,
    /// Task executions: the `Exec` spans.
    pub task_exec_ns: Digest,
    /// For each down `TdWave` past a phase's first, the time since the
    /// rank's previous one.
    pub td_wave_gap_ns: Digest,
    /// Each gauge's samples, sum and maximum over all ranks (`last` unused).
    pub gauges: BTreeMap<String, Gauge>,
}

impl Census {
    /// Count `trace`, whose ranks' spans are `timelines`.
    pub(crate) fn new(trace: &Trace, timelines: &[Timeline]) -> Census {
        let mut census = Census::default();
        for (events, timeline) in trace.events.iter().zip(timelines) {
            census.events.push(events.len() as u64);
            let mut last_down = None;
            for e in events {
                census.kinds[e.event.kind()] += 1;
                if let TraceEvent::TdWave { wave, dir: WaveDir::Down, .. } = e.event {
                    // Wave numbers restart with each process phase.
                    if let Some(t0) = last_down.filter(|_| wave > 1) {
                        census.td_wave_gap_ns.add(e.t_ns.saturating_sub(t0));
                    }
                    last_down = Some(e.t_ns);
                }
            }
            for span in &timeline.spans {
                match span.cat {
                    Category::Steal => census.steal_rtt_ns.add(span.len()),
                    Category::Exec => census.task_exec_ns.add(span.len()),
                    _ => {}
                }
            }
        }
        for (name, g) in trace.gauges.iter().flatten() {
            let all = census.gauges.entry(name.clone()).or_default();
            all.samples += g.samples;
            all.sum = all.sum.saturating_add(g.sum);
            all.max = all.max.max(g.max);
        }
        census
    }

    /// Append the census as text, given the per-rank drop counts and the
    /// trace's clock.
    pub(crate) fn write_text(&self, out: &mut String, dropped: &[u64], wall_clock: bool) {
        let (n, total_dropped) = (self.events.len(), dropped.iter().sum::<u64>());
        let total = self.events.iter().sum::<u64>();
        let _ = writeln!(out, "== trace summary: {n} ranks, {total} events, {total_dropped} dropped ==");
        if wall_clock {
            out.push_str("clock: wall (concurrent mode — timestamps are real ns, not reproducible across runs)\n");
        }
        let _ = writeln!(out, "{:>6}  {:>10}  {:>10}", "rank", "events", "dropped");
        for (r, (events, dropped)) in self.events.iter().zip(dropped).enumerate() {
            let _ = writeln!(out, "{r:>6}  {events:>10}  {dropped:>10}");
        }
        if total_dropped > 0 {
            let _ = writeln!(
                out,
                "WARNING: ring overflow dropped {total_dropped} event(s) on {} rank(s); timelines are \
                 truncated — rerun with a larger ring capacity (TraceConfig::with_capacity / --trace-ring)",
                dropped.iter().filter(|&&d| d > 0).count()
            );
        }
        out.push_str("events by kind:\n");
        for (&name, c) in TraceEvent::NAMES.iter().zip(self.kinds) {
            match self.gauges.get(MERGED_GAUGE) {
                _ if c == 0 => {}
                // Window summaries: the records they stand for as well.
                Some(merged) if name == "LocalAccess" => {
                    let _ = writeln!(out, "  {name:<16} {c} ({} records)", c + merged.sum);
                }
                _ => {
                    let _ = writeln!(out, "  {name:<16} {c}");
                }
            }
        }
        let digests = [
            ("steal_rtt_ns", &self.steal_rtt_ns),
            ("task_exec_ns", &self.task_exec_ns),
            ("td_wave_gap_ns", &self.td_wave_gap_ns),
        ];
        for (i, (name, d)) in digests.iter().filter(|(_, d)| d.count > 0).enumerate() {
            if i == 0 {
                out.push_str("histograms (virtual ns, merged across ranks):\n");
            }
            let mean = d.sum as f64 / d.count as f64;
            let (count, p50, max) = (d.count, d.p50_upper(), d.max);
            let _ = writeln!(out, "  {name:<16} count={count} mean={mean:.0} p50<={p50} max={max}");
        }
        for (i, (name, g)) in self.gauges.iter().enumerate() {
            if i == 0 {
                out.push_str("gauges (mean/max over all ranks' samples):\n");
            }
            let _ = writeln!(out, "  {name:<16} samples={} mean={:.2} max={}", g.samples, g.mean(), g.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::spans_for_rank;
    use crate::AnalysisReport;
    use scioto::VictimPolicy;
    use scioto_sim::{LatencyModel, MachineConfig, TraceConfig, TraceSink};

    fn digest(samples: &[u64]) -> Digest {
        let mut d = Digest::default();
        for &v in samples {
            d.add(v);
        }
        d
    }

    #[test]
    fn quantile_edge_cases_are_defined() {
        // The median is the ceil(n/2)-th smallest sample, rounded up to the
        // end of its power-of-two bucket [2^(k-1), 2^k - 1], never past the
        // largest sample.
        assert_eq!(digest(&[]).p50_upper(), 0);
        assert_eq!(digest(&[0]).p50_upper(), 0);
        assert_eq!(digest(&[1]).p50_upper(), 1);
        assert_eq!(digest(&[1000, 100, 10]).p50_upper(), 127);
        assert_eq!(digest(&[10, 1_000_000]).p50_upper(), 15);
        assert_eq!(digest(&[64, 63, 64, 63]).p50_upper(), 63);
        assert_eq!(digest(&[u64::MAX]).p50_upper(), u64::MAX);
        assert_eq!(digest(&[1 << 63]).p50_upper(), 1 << 63);
        assert_eq!(digest(&[1 << 63, 1 << 62, u64::MAX]).p50_upper(), u64::MAX);
    }

    #[test]
    fn durations_are_derived_from_the_events() {
        let sink = TraceSink::new(&TraceConfig::enabled(), 2);
        let down = |wave| move || TraceEvent::TdWave { wave, dir: WaveDir::Down, black: false };
        // Rank 0: a task that runs a nested one, then a steal attempt.
        sink.emit(0, 10, || TraceEvent::TaskExecBegin { callback: 0, creator: 0 });
        sink.emit(0, 20, || TraceEvent::TaskExecBegin { callback: 1, creator: 1 });
        sink.emit(0, 25, || TraceEvent::TaskExecEnd { callback: 1 });
        sink.emit(0, 40, || TraceEvent::TaskExecEnd { callback: 0 });
        sink.emit(0, 60, || TraceEvent::StealAttempt { victim: 1, got: 0, dur_ns: 9 });
        // Rank 1: two phases of down waves; the numbering restarts at 1, so
        // the gap across the phase boundary is no sample. Up waves and
        // other events between them do not count.
        sink.emit(1, 100, down(1));
        sink.emit(1, 150, || TraceEvent::TdWave { wave: 1, dir: WaveDir::Up, black: true });
        sink.emit(1, 300, down(2));
        sink.emit(1, 700, down(3));
        sink.emit(1, 5_000, down(1));
        sink.emit(1, 5_064, down(2));
        let report = AnalysisReport::from_trace(&sink.finish().unwrap());
        let c = &report.census;
        assert_eq!(c.steal_rtt_ns, digest(&[9]));
        assert_eq!(c.task_exec_ns, digest(&[5, 30]));
        assert_eq!(c.td_wave_gap_ns, digest(&[200, 400, 64]));
        let s = report.to_text();
        assert!(s.contains(
            "histograms (virtual ns, merged across ranks):\n\
             \x20 steal_rtt_ns     count=1 mean=9 p50<=9 max=9\n\
             \x20 task_exec_ns     count=2 mean=18 p50<=7 max=30\n\
             \x20 td_wave_gap_ns   count=3 mean=221 p50<=255 max=400\n"
        ), "{s}");
        // A digest with no samples prints no line; none at all, no header.
        let quiet = TraceSink::new(&TraceConfig::enabled(), 1);
        quiet.emit(0, 1, down(1));
        let quiet = AnalysisReport::from_trace(&quiet.finish().unwrap());
        assert!(!quiet.to_text().contains("histograms"));
    }

    #[test]
    fn summary_names_metrics_and_kinds() {
        let sink = TraceSink::new(&TraceConfig::enabled(), 2);
        sink.emit(0, 10, || TraceEvent::TaskExecBegin { callback: 1, creator: 1 });
        sink.emit(0, 50, || TraceEvent::TaskExecEnd { callback: 1 });
        sink.emit(0, 60, || TraceEvent::StealAttempt { victim: 1, got: 2, dur_ns: 8 });
        sink.emit(1, 7, || TraceEvent::QueueDepth { local: 3, shared: 1 });
        sink.gauge(1, "queue_local", 3);
        sink.gauge(1, "queue_local", 6);
        sink.gauge(0, "queue_local", 1);
        let text = AnalysisReport::from_trace(&sink.finish().unwrap()).to_text();
        assert!(text.starts_with(
            "== trace summary: 2 ranks, 4 events, 0 dropped ==\n\
             \x20 rank      events     dropped\n\
             \x20    0           3           0\n\
             \x20    1           1           0\n\
             events by kind:\n\
             \x20 QueueDepth       1\n\
             \x20 StealAttempt     1\n\
             \x20 TaskExecBegin    1\n\
             \x20 TaskExecEnd      1\n\
             histograms (virtual ns, merged across ranks):\n\
             \x20 steal_rtt_ns     count=1 mean=8 p50<=8 max=8\n\
             \x20 task_exec_ns     count=1 mean=40 p50<=40 max=40\n\
             gauges (mean/max over all ranks' samples):\n\
             \x20 queue_local      samples=3 mean=3.33 max=6\n\
             \n== trace analysis: 2 ranks"
        ), "{text}");
    }

    #[test]
    fn summary_warns_on_ring_overflow() {
        let sink = TraceSink::new(&TraceConfig::enabled().with_capacity(2), 1);
        for t in 0..5u64 {
            sink.emit(0, t, || TraceEvent::Block);
        }
        let trace = sink.finish().unwrap();
        assert_eq!(trace.dropped, vec![3]);
        let text = AnalysisReport::from_trace(&trace).to_text();
        assert!(text.contains("\nWARNING: ring overflow dropped 3 event(s) on 1 rank(s); timelines"));
        let mut wall = trace.clone();
        wall.wall_clock = true;
        let text = AnalysisReport::from_trace(&wall).to_text();
        assert!(text.contains("\nclock: wall (concurrent mode"), "{text}");
    }

    #[test]
    fn one_pairing_rule_for_census_blame_and_provenance() {
        // A begin the trace never ends: blame closes it at the rank's last
        // stamp, and the census counts that span.
        let sink = TraceSink::new(&TraceConfig::enabled(), 1);
        sink.emit(0, 10, || TraceEvent::TaskExecBegin { callback: 0, creator: 0 });
        sink.emit(0, 20, || TraceEvent::TaskExecEnd { callback: 0 });
        sink.emit(0, 30, || TraceEvent::TaskExecBegin { callback: 0, creator: 0 });
        sink.emit(0, 45, || TraceEvent::QueueDepth { local: 0, shared: 0 });
        let cut = sink.finish().unwrap();
        let execs = spans_for_rank(cut.events_for(0)).iter().filter(|s| s.cat == Category::Exec).count();
        assert_eq!(execs, 2);
        assert_eq!(AnalysisReport::from_trace(&cut).census.task_exec_ns, digest(&[10, 15]));

        // On a real run the census, provenance and the trace agree.
        let trace = crate::timeline::tests::uts_recording(
            MachineConfig::virtual_time(8).with_latency(LatencyModel::cluster()),
            scioto_uts::presets::tiny(),
            VictimPolicy::Locality,
        );
        let report = AnalysisReport::from_trace(&trace);
        let c = &report.census;
        assert_eq!(c.task_exec_ns.count, report.provenance.total_execs);
        let attempts: u64 = report.provenance.edges.iter().map(|e| e.attempts).sum();
        assert!(attempts > 0);
        assert_eq!(c.steal_rtt_ns.count, attempts);
        assert_eq!(c.kinds.iter().sum::<u64>(), trace.total_events() as u64);
        assert_eq!(c.events.iter().sum::<u64>(), trace.total_events() as u64);
    }
}
