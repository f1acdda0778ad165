//! End-to-end observability checks for the concurrent (real-thread)
//! backend: wall-clock traced UTS runs must export analyzable,
//! race-checkable traces, and ring overflow under concurrent emission
//! must surface loudly in every reporting surface.

use scioto_sim::{Machine, MachineConfig, TraceConfig};
use scioto_uts::presets;
use scioto_uts::scioto_driver::{run_scioto_uts, SciotoUtsConfig};

fn traced_concurrent_run(ranks: usize, ring: Option<usize>) -> scioto_sim::Report {
    let trace = match ring {
        Some(cap) => TraceConfig::enabled().with_capacity(cap),
        None => TraceConfig::enabled(),
    };
    let params = presets::tiny();
    Machine::run(
        MachineConfig::concurrent(ranks).with_seed(42).with_trace(trace),
        move |ctx| run_scioto_uts(ctx, &SciotoUtsConfig::new(params)).0,
    )
    .report
}

#[test]
fn concurrent_traced_uts_analyzes_and_race_checks_clean() {
    let report = traced_concurrent_run(4, None);
    let trace = report.trace.as_ref().expect("traced run carries a trace");
    assert!(trace.wall_clock, "concurrent trace must be wall-marked");
    assert_eq!(trace.dropped.iter().sum::<u64>(), 0, "default ring must not drop");

    // Per-rank thread spans are measured and bound every stamp.
    for r in 0..4 {
        assert!(report.rank_clock_ns[r] > 0, "rank {r} span not filled");
        assert_eq!(trace.final_clock_ns[r], report.rank_clock_ns[r]);
    }

    // Blame decomposition is exact per rank, warnings-free.
    let analysis = scioto_analyze::analyze(trace);
    assert!(analysis.warnings.is_empty(), "{:?}", analysis.warnings);
    for r in 0..analysis.ranks {
        assert_eq!(analysis.blame[r].total(), analysis.elapsed_ns[r]);
    }

    // The JSONL export round-trips with the wall marker intact.
    let parsed = scioto_analyze::jsonl::parse(&trace.to_jsonl()).expect("export parses");
    assert!(parsed.wall_clock);
    assert_eq!(parsed.to_jsonl(), trace.to_jsonl());

    // The HB race check pairs sync purely structurally — a real-thread
    // UTS run must come back clean with actual edges replayed.
    let verdict = scioto_race::check_trace(trace).expect("trace replays");
    assert!(verdict.is_clean(), "{verdict}");
    assert!(verdict.sync_edges > 0, "UTS run should carry sync edges");

    // And replay lowering refuses wall traces with its descriptive error.
    let err = scioto_analyze::lower(trace).unwrap_err();
    assert!(err.to_string().contains("wall-clock"), "{err}");
}

#[test]
fn concurrent_ring_overflow_warns_in_every_surface() {
    // A 16-slot ring cannot hold a UTS run's event stream; drops must be
    // counted, not silently lost, even under concurrent emission.
    let report = traced_concurrent_run(4, Some(16));
    let trace = report.trace.as_ref().expect("traced run carries a trace");
    let total_dropped: u64 = trace.dropped.iter().sum();
    assert!(total_dropped > 0, "tiny ring must overflow on a UTS run");
    for r in 0..4 {
        assert!(trace.events[r].len() <= 16, "ring capacity must bound retained events");
    }

    // Surface 1: the analysis report (struct, text — census first — and
    // JSON).
    let analysis = scioto_analyze::analyze(trace);
    assert!(
        analysis.warnings.iter().any(|w| w.contains("ring overflow")),
        "{:?}",
        analysis.warnings
    );
    let text = analysis.to_text();
    assert!(text.contains("WARNING: ring overflow"), "{text}");
    assert!(text.contains("clock: wall"), "{text}");
    assert!(analysis.to_json().contains("ring overflow"));

    // Surface 2: the race checker refuses truncated sync streams with a
    // diagnostic instead of a bogus verdict.
    let err = scioto_race::check_trace(trace).unwrap_err();
    assert!(err.contains("dropped"), "{err}");

    // The drop counters survive the JSONL round trip, so offline tools
    // see the same truncation the live run reported.
    let parsed = scioto_analyze::jsonl::parse(&trace.to_jsonl()).expect("export parses");
    assert_eq!(parsed.dropped, trace.dropped);
}
