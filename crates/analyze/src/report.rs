//! The assembled analysis report: the trace's census, per-rank blame,
//! provenance, critical path, warnings — renderable as human text (which
//! opens with the census) or versioned JSON (`scioto-analysis-v1`, which
//! leaves it out; hand-rolled, validated by `scioto_sim::validate_json`
//! in tests and tools).

use std::fmt::Write as _;

use scioto_sim::Trace;

use crate::blame::Blame;
use crate::census::Census;
use crate::critpath::{self, CritPath};
use crate::provenance::{self, Provenance};
use crate::timeline::{Category, Timeline, CATEGORIES};

/// Schema tag written into every analysis JSON document.
const ANALYSIS_SCHEMA: &str = "scioto-analysis-v1";

/// Name of the runtime's sticky startup gauge (`scioto::trace::GAUGE_STARTUP`
/// — this crate only depends on scioto-sim, so the name is mirrored here).
/// Each rank samples it once, at the moment `TaskCollection::process`
/// finishes its entry barrier: the value is the rank's clock when the
/// machine first became collectively ready to execute tasks.
pub const STARTUP_GAUGE: &str = "startup_ns";

/// Complete analysis of one trace.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Number of ranks analyzed.
    pub ranks: usize,
    /// Max per-rank elapsed time (virtual, or wall when `wall_clock`).
    pub makespan_ns: u64,
    /// Per-rank elapsed time: virtual ns, or — for wall-clock
    /// (concurrent-mode) traces — each thread's measured wall span.
    pub elapsed_ns: Vec<u64>,
    /// True when the trace carries real wall-clock stamps (concurrent
    /// mode). The blame invariant (rows sum to elapsed) holds in both
    /// clock domains; wall reports are just not reproducible run-to-run.
    pub wall_clock: bool,
    /// Per-rank startup completion stamp (ns), read from the runtime's
    /// sticky [`STARTUP_GAUGE`]. Zero for ranks that never reached
    /// `TaskCollection::process`; all-zero vectors are omitted from both
    /// renderings so traces without the gauge export byte-identically to
    /// earlier schema versions.
    pub startup_ns: Vec<u64>,
    /// Per-rank blame decomposition (each sums to its elapsed time).
    pub blame: Vec<Blame>,
    /// Steal-provenance profile.
    pub provenance: Provenance,
    /// Critical-path walk.
    pub critical_path: CritPath,
    /// Per-rank ring-overflow drop counts, copied from the trace.
    pub dropped: Vec<u64>,
    /// Event counts and duration digests of the trace.
    pub census: Census,
    /// Human-readable data-quality warnings (ring overflow, truncated
    /// walks). Empty for clean traces.
    pub warnings: Vec<String>,
}

impl AnalysisReport {
    /// Analyze `trace` (in-memory or re-parsed from JSONL).
    pub fn from_trace(trace: &Trace) -> AnalysisReport {
        let ranks = trace.nranks();
        let elapsed_ns: Vec<u64> = (0..ranks).map(|r| trace.elapsed_ns(r)).collect();
        // Each rank's spans are extracted and indexed once, for blame and
        // the walk alike.
        let timelines: Vec<Timeline> = (0..ranks).map(|r| Timeline::new(trace.events_for(r))).collect();
        let blame: Vec<Blame> = timelines.iter().zip(&elapsed_ns).map(|(tl, &e)| tl.blame(e)).collect();
        let critical_path = critpath::walk(trace, &timelines);
        let census = Census::new(trace, &timelines);
        let mut warnings = Vec::new();
        let total_dropped: u64 = trace.dropped.iter().sum();
        if total_dropped > 0 {
            warnings.push(format!(
                "ring overflow dropped {total_dropped} event(s) on {} rank(s); \
                 blame and provenance under-count truncated timelines",
                trace.dropped.iter().filter(|&&d| d > 0).count()
            ));
        }
        if critical_path.truncated {
            warnings.push("critical-path walk hit its iteration backstop; path is partial".into());
        }
        for (r, b) in blame.iter().enumerate() {
            if b.total() != elapsed_ns[r] {
                warnings.push(format!(
                    "blame invariant violated on rank {r}: {} != elapsed {}",
                    b.total(),
                    elapsed_ns[r]
                ));
            }
        }
        let startup_ns: Vec<u64> = (0..ranks)
            .map(|r| trace.gauges.get(r).and_then(|g| g.get(STARTUP_GAUGE)).map_or(0, |g| g.last))
            .collect();
        AnalysisReport {
            ranks,
            makespan_ns: elapsed_ns.iter().copied().max().unwrap_or(0),
            elapsed_ns,
            wall_clock: trace.wall_clock,
            startup_ns,
            blame,
            provenance: provenance::analyze(trace),
            critical_path,
            dropped: trace.dropped.clone(),
            census,
            warnings,
        }
    }

    /// Blame summed over all ranks (totals `sum(elapsed_ns)`).
    pub fn total_blame(&self) -> Blame {
        let mut total = Blame::default();
        for b in &self.blame {
            total.merge(b);
        }
        total
    }

    /// Versioned machine-readable JSON document. Deterministic: integer
    /// fields are exact and float fields use fixed six-decimal
    /// formatting, so same-seed runs produce byte-identical documents.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\n\"schema\":\"{ANALYSIS_SCHEMA}\",\n\"ranks\":{},\n\"makespan_ns\":{},\n",
            self.ranks, self.makespan_ns
        );
        // Emitted only for wall-clock traces so virtual-time documents
        // stay byte-identical to every pinned baseline.
        if self.wall_clock {
            out.push_str("\"clock\":\"wall\",\n");
        }
        // Emitted only when at least one rank recorded the startup gauge,
        // same compatibility rule as the wall-clock marker above.
        if self.startup_ns.iter().any(|&v| v > 0) {
            out.push_str("\"startup_ns\":[");
            push_u64s(&mut out, &self.startup_ns);
            out.push_str("],\n");
        }
        out.push_str("\"dropped_events\":[");
        push_u64s(&mut out, &self.dropped);
        out.push_str("],\n\"blame\":{\"per_rank\":[\n");
        for (r, b) in self.blame.iter().enumerate() {
            let _ = write!(out, "{}{{\"rank\":{r},\"elapsed_ns\":{}", if r == 0 { "" } else { ",\n" }, self.elapsed_ns[r]);
            push_blame(&mut out, b);
            out.push('}');
        }
        out.push_str("\n],\"total\":{");
        let total = self.total_blame();
        let _ = write!(out, "\"elapsed_ns\":{}", total.total());
        push_blame(&mut out, &total);
        out.push_str("}},\n\"provenance\":{\"edges\":[\n");
        for (i, e) in self.provenance.edges.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"thief\":{},\"victim\":{},\"attempts\":{},\"successes\":{},\"tasks\":{},\"dur_ns\":{}}}",
                if i == 0 { "" } else { ",\n" },
                e.thief, e.victim, e.attempts, e.successes, e.tasks, e.dur_ns
            );
        }
        out.push_str("\n],\"distance_hist\":[");
        push_u64s(&mut out, &self.provenance.distance_hist);
        let _ = writeln!(
            out,
            "],\"chain_depth_max\":{},\"chain_depth_mean\":{:.6},\"migrated_execs\":{},\
             \"total_execs\":{},\"migration_ratio\":{:.6},\
             \"mean_ring_distance\":{:.6},\"near_steal_share\":{:.6}}},",
            self.provenance.chain_depth_max,
            self.provenance.chain_depth_mean,
            self.provenance.migrated_execs,
            self.provenance.total_execs,
            self.provenance.migration_ratio(),
            self.provenance.mean_ring_distance(),
            self.provenance.near_share(provenance::NEAR_RADIUS)
        );
        let cp = &self.critical_path;
        let _ = write!(
            out,
            "\"critical_path\":{{\"length_ns\":{},\"total_work_ns\":{},\"max_task_ns\":{},\
             \"parallelism\":{:.6},\"num_segments\":{},\"truncated\":{},",
            cp.length_ns,
            cp.total_work_ns,
            cp.max_task_ns,
            cp.parallelism(),
            cp.segments.len(),
            cp.truncated
        );
        out.push_str("\"blame\":{");
        let mut first = true;
        for cat in CATEGORIES {
            let _ = write!(out, "{}\"{}\":{}", if first { "" } else { "," }, cat.name(), cp.blame.get(cat));
            first = false;
        }
        out.push_str("},\"top_segments\":[\n");
        for (i, s) in cp.top_segments(10).iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"rank\":{},\"cat\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"len_ns\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.rank,
                s.cat.name(),
                s.start,
                s.end,
                s.len()
            );
        }
        out.push_str("\n]},\n\"warnings\":[");
        for (i, w) in self.warnings.iter().enumerate() {
            let _ = write!(out, "{}\"{}\"", if i == 0 { "" } else { "," }, escape(w));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Human-readable rendering: the census, then the blame table, steal
    /// profile and critical path composition.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.census.write_text(&mut out, &self.dropped, self.wall_clock);
        let _ = writeln!(
            out,
            "\n== trace analysis: {} ranks, makespan {} ns{} ==",
            self.ranks,
            self.makespan_ns,
            if self.wall_clock { " (wall clock)" } else { "" }
        );
        for w in &self.warnings {
            let _ = writeln!(out, "WARNING: {w}");
        }
        if self.startup_ns.iter().any(|&v| v > 0) {
            let max = self.startup_ns.iter().copied().max().unwrap_or(0);
            let agg: u64 = self.startup_ns.iter().sum();
            let _ = writeln!(
                out,
                "startup: ready at {max} ns (slowest rank); {agg} rank-ns aggregate"
            );
        }
        let _ = writeln!(
            out,
            "\n-- blame decomposition ({} ns; rows sum to elapsed) --",
            if self.wall_clock { "wall" } else { "virtual" }
        );
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>12} {:>10} {:>10} {:>10} {:>12} {:>12}  idle%",
            "rank", "exec", "steal", "lock", "td", "barrier", "idle", "elapsed"
        );
        for r in 0..self.ranks {
            let b = &self.blame[r];
            let e = self.elapsed_ns[r];
            let idle_pct = if e == 0 { 0.0 } else { 100.0 * b.get(Category::Idle) as f64 / e as f64 };
            let _ = writeln!(
                out,
                "{:>5} {:>12} {:>12} {:>10} {:>10} {:>10} {:>12} {:>12}  {:.1}%",
                r,
                b.get(Category::Exec),
                b.get(Category::Steal),
                b.get(Category::Lock),
                b.get(Category::Td),
                b.get(Category::Barrier),
                b.get(Category::Idle),
                e,
                idle_pct
            );
        }
        let total = self.total_blame();
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>12} {:>10} {:>10} {:>10} {:>12} {:>12}",
            "all",
            total.get(Category::Exec),
            total.get(Category::Steal),
            total.get(Category::Lock),
            total.get(Category::Td),
            total.get(Category::Barrier),
            total.get(Category::Idle),
            total.total()
        );

        let p = &self.provenance;
        let _ = writeln!(out, "\n-- steal provenance --");
        let _ = writeln!(
            out,
            "edges={} successes={} tasks_moved={} chain_depth max={} mean={:.2} migrated {}/{} execs ({:.1}%)",
            p.edges.len(),
            p.total_successes(),
            p.edges.iter().map(|e| e.tasks).sum::<u64>(),
            p.chain_depth_max,
            p.chain_depth_mean,
            p.migrated_execs,
            p.total_execs,
            100.0 * p.migration_ratio()
        );
        let mut busiest: Vec<_> = p.edges.iter().collect();
        busiest.sort_by(|a, b| b.tasks.cmp(&a.tasks).then((a.thief, a.victim).cmp(&(b.thief, b.victim))));
        for e in busiest.iter().take(5) {
            let _ = writeln!(
                out,
                "  r{} <- r{}: {}/{} attempts ok, {} tasks, {} ns",
                e.thief, e.victim, e.successes, e.attempts, e.tasks, e.dur_ns
            );
        }
        if !p.distance_hist.is_empty() {
            let _ = write!(out, "steal ring distances:");
            for (d, c) in p.distance_hist.iter().enumerate() {
                if *c > 0 {
                    let _ = write!(out, " d{d}={c}");
                }
            }
            let _ = writeln!(out);
        }
        if p.total_successes() > 0 {
            let _ = writeln!(
                out,
                "locality: mean ring distance {:.2}, {:.1}% of steals within d<={}",
                p.mean_ring_distance(),
                100.0 * p.near_share(provenance::NEAR_RADIUS),
                provenance::NEAR_RADIUS
            );
        }

        let cp = &self.critical_path;
        let _ = writeln!(out, "\n-- critical path --");
        let _ = writeln!(
            out,
            "length={} ns  total_work(T1)={} ns  parallelism={:.2}  max_task={} ns  segments={}",
            cp.length_ns,
            cp.total_work_ns,
            cp.parallelism(),
            cp.max_task_ns,
            cp.segments.len()
        );
        let _ = write!(out, "path blame:");
        for cat in CATEGORIES {
            let v = cp.blame.get(cat);
            if v > 0 {
                let pct = if cp.length_ns == 0 { 0.0 } else { 100.0 * v as f64 / cp.length_ns as f64 };
                let _ = write!(out, " {}={v} ({pct:.1}%)", cat.name());
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "top segments:");
        for s in cp.top_segments(5) {
            let _ = writeln!(
                out,
                "  rank {:>3} {:<8} [{} .. {}] {} ns",
                s.rank,
                s.cat.name(),
                s.start,
                s.end,
                s.len()
            );
        }
        out
    }
}

fn push_u64s(out: &mut String, vs: &[u64]) {
    for (i, v) in vs.iter().enumerate() {
        let _ = write!(out, "{}{v}", if i == 0 { "" } else { "," });
    }
}

fn push_blame(out: &mut String, b: &Blame) {
    for cat in CATEGORIES {
        let _ = write!(out, ",\"{}\":{}", cat.name(), b.get(cat));
    }
}

/// `s` as the inside of a JSON string: quotes, backslashes and control
/// characters escaped. The analysis and `scioto-race-v1` writers share it.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{validate_json, TraceConfig, TraceEvent, TraceSink};

    fn sample_trace() -> Trace {
        let sink = TraceSink::new(&TraceConfig::enabled(), 2);
        let evs0 = [
            (0, TraceEvent::TaskExecBegin { callback: 0, creator: 0 }),
            (50, TraceEvent::TaskExecEnd { callback: 0 }),
        ];
        let evs1 = [
            (60, TraceEvent::StealAttempt { victim: 0, got: 1, dur_ns: 10 }),
            (60, TraceEvent::TaskExecBegin { callback: 0, creator: 0 }),
            (95, TraceEvent::TaskExecEnd { callback: 0 }),
            (100, TraceEvent::TdProgress { dur_ns: 5 }),
        ];
        for (t, e) in evs0 {
            sink.emit(0, t, || e);
        }
        for (t, e) in evs1 {
            sink.emit(1, t, || e);
        }
        let mut t = sink.finish().unwrap();
        t.final_clock_ns = vec![80, 100];
        t
    }

    #[test]
    fn report_holds_invariants_and_renders() {
        let report = AnalysisReport::from_trace(&sample_trace());
        assert_eq!(report.ranks, 2);
        assert_eq!(report.makespan_ns, 100);
        assert!(report.warnings.is_empty());
        for r in 0..2 {
            assert_eq!(report.blame[r].total(), report.elapsed_ns[r]);
        }
        assert_eq!(report.critical_path.length_ns, 100);
        assert!(report.critical_path.length_ns <= report.elapsed_ns.iter().sum());
        assert!(report.critical_path.length_ns >= report.critical_path.max_task_ns);
        assert_eq!(report.provenance.migrated_execs, 1);

        let text = report.to_text();
        assert!(text.contains("blame decomposition"));
        assert!(text.contains("critical path"));
        assert!(!text.contains("WARNING"));
    }

    #[test]
    fn json_is_valid_and_versioned() {
        let report = AnalysisReport::from_trace(&sample_trace());
        let json = report.to_json();
        validate_json(&json).expect("analysis JSON must parse");
        assert!(json.contains("\"schema\":\"scioto-analysis-v1\""));
        assert!(json.contains("\"blame\""));
        assert!(json.contains("\"critical_path\""));
        assert!(json.contains("\"provenance\""));
        assert!(json.contains("\"mean_ring_distance\":1.000000"));
        assert!(json.contains("\"near_steal_share\":1.000000"));
        assert!(json.contains("\"warnings\":[]"));
    }

    #[test]
    fn locality_summary_renders_in_text() {
        let report = AnalysisReport::from_trace(&sample_trace());
        let text = report.to_text();
        assert!(text.contains("locality: mean ring distance 1.00"));
        assert!(text.contains("100.0% of steals within d<=2"));
    }

    #[test]
    fn dropped_events_surface_as_warnings() {
        let sink = TraceSink::new(&TraceConfig::enabled().with_capacity(1), 1);
        for t in 0..4u64 {
            sink.emit(0, t, || TraceEvent::Block);
        }
        let mut trace = sink.finish().unwrap();
        trace.final_clock_ns = vec![4];
        let report = AnalysisReport::from_trace(&trace);
        assert_eq!(report.dropped, vec![3]);
        assert!(report.warnings.iter().any(|w| w.contains("ring overflow")));
        assert!(report.to_text().contains("WARNING: ring overflow"));
        let json = report.to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("ring overflow"));
    }

    #[test]
    fn startup_gauge_surfaces_in_json_and_text_only_when_present() {
        // Without the gauge: no key, no text line (back-compat with every
        // pinned baseline that predates startup accounting).
        let plain = AnalysisReport::from_trace(&sample_trace());
        assert_eq!(plain.startup_ns, vec![0, 0]);
        assert!(!plain.to_json().contains("startup_ns"));
        assert!(!plain.to_text().contains("startup:"));

        // With it: per-rank stamps in the JSON array and a summary line.
        let sink = TraceSink::new(&TraceConfig::enabled(), 2);
        sink.emit(0, 50, || TraceEvent::TaskExecBegin { callback: 0, creator: 0 });
        sink.emit(0, 80, || TraceEvent::TaskExecEnd { callback: 0 });
        sink.gauge(0, STARTUP_GAUGE, 40);
        sink.gauge(1, STARTUP_GAUGE, 45);
        let mut t = sink.finish().unwrap();
        t.final_clock_ns = vec![80, 100];
        let report = AnalysisReport::from_trace(&t);
        assert_eq!(report.startup_ns, vec![40, 45]);
        let json = report.to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"startup_ns\":[40,45]"));
        assert!(report.to_text().contains("startup: ready at 45 ns (slowest rank); 85 rank-ns aggregate"));
    }

    #[test]
    fn same_trace_renders_byte_identically() {
        let a = AnalysisReport::from_trace(&sample_trace()).to_json();
        let b = AnalysisReport::from_trace(&sample_trace()).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn wall_clock_trace_keeps_blame_exact_and_marks_outputs() {
        let mut t = sample_trace();
        t.wall_clock = true;
        let report = AnalysisReport::from_trace(&t);
        assert!(report.wall_clock);
        // The exactness invariant is clock-domain independent: every rank's
        // decomposition sums to its measured span, with no warnings.
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        for r in 0..report.ranks {
            assert_eq!(report.blame[r].total(), report.elapsed_ns[r]);
        }
        let json = report.to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"clock\":\"wall\""));
        let text = report.to_text();
        assert!(text.contains("(wall clock)"));
        assert!(text.contains("wall ns; rows sum to elapsed"));
        // Virtual-time documents carry no clock key at all.
        let vt = AnalysisReport::from_trace(&sample_trace());
        assert!(!vt.to_json().contains("\"clock\""));
        assert!(!vt.to_text().contains("wall"));
    }
}
