//! Runtime-level observability: the gauge names the Scioto runtime
//! records into the simulator's tracing layer, plus re-exports of the
//! trace types so applications depending only on `scioto` can configure
//! and consume traces.
//!
//! Enable tracing with
//! `MachineConfig::virtual_time(n).with_trace(TraceConfig::enabled())`;
//! the completed run's [`Trace`] hangs off `RunOutput::report.trace`.
//! Events are stamped with the emitting rank's virtual clock, so traces
//! of a given seed are bit-identical across runs. The summary's duration
//! digests (task execution, steal round trip, termination-wave gap) are
//! derived from the events, so the runtime records each sample once.

pub use scioto_sim::{
    validate_json, Gauge, RemoteOpKind, StampedEvent, Trace, TraceConfig, TraceEvent, WaveDir,
};

/// Gauge of the per-rank startup cost: the rank's clock (ns) when it
/// first completed a `TaskCollection::process` prologue. Sampled once per
/// collection, so `last == max` and it survives trace replay byte-exactly
/// (gauges round-trip through JSONL and the replay engine verbatim).
pub const GAUGE_STARTUP: &str = "startup_ns";

/// Gauge of the owner-private queue portion, sampled at detector polls.
pub const GAUGE_QUEUE_LOCAL: &str = "queue_local";

/// Gauge of the shared (stealable) queue portion, sampled at detector
/// polls.
pub const GAUGE_QUEUE_SHARED: &str = "queue_shared";

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use scioto_armci::Armci;
    use scioto_sim::{LatencyModel, Machine, MachineConfig, TraceConfig, TraceEvent};

    use crate::{Task, TaskCollection, TcConfig, AFFINITY_HIGH};

    fn run_traced(seed: u64, trace: TraceConfig) -> scioto_sim::Report {
        let cfg = MachineConfig::virtual_time(4)
            .with_latency(LatencyModel::cluster())
            .with_seed(seed)
            .with_trace(trace);
        Machine::run(cfg, |ctx| {
            let armci = Armci::init(ctx);
            let tc = TaskCollection::create(ctx, &armci, TcConfig::new(8, 2, 256));
            let h = tc.register(ctx, Arc::new(|t| t.ctx.compute(500)));
            if ctx.rank() == 0 {
                for _ in 0..64 {
                    tc.add(ctx, 0, AFFINITY_HIGH, &Task::new(h, vec![]));
                }
            }
            tc.process(ctx);
        })
        .report
    }

    #[test]
    fn runtime_emits_task_steal_split_and_wave_events() {
        let report = run_traced(7, TraceConfig::enabled());
        let trace = report.trace.expect("tracing was enabled");
        let count = |name: &str| -> usize {
            trace
                .events
                .iter()
                .flatten()
                .filter(|e| e.event.name() == name)
                .count()
        };
        assert!(count("TaskExecBegin") == 64 && count("TaskExecEnd") == 64);
        assert!(count("StealAttempt") > 0, "work must be stolen");
        assert!(count("SplitRelease") > 0, "rank 0 must release work");
        assert!(count("TdWave") > 0, "waves must be traced");
        assert!(count("RemoteOp") > 0, "armci ops must be traced");
        // Every rank participates in termination detection.
        for r in 0..trace.nranks() {
            assert!(
                trace
                    .events_for(r)
                    .iter()
                    .any(|e| matches!(e.event, TraceEvent::TdWave { .. })),
                "rank {r} has no TdWave events"
            );
        }
        // Each execution's duration is its end minus its begin: 64 of them,
        // each covering the task's 500 ns compute.
        let mut exec = Vec::new();
        for events in &trace.events {
            let mut begun = None;
            for e in events {
                match e.event {
                    TraceEvent::TaskExecBegin { .. } => begun = Some(e.t_ns),
                    TraceEvent::TaskExecEnd { .. } => {
                        exec.push(e.t_ns - begun.take().expect("an end follows its begin"));
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(exec.len(), 64);
        assert!(exec.iter().all(|&d| d >= 500), "task covers its 500 ns compute: {exec:?}");
    }

    #[test]
    fn disabled_tracing_attaches_nothing() {
        let report = run_traced(7, TraceConfig::disabled());
        assert!(report.trace.is_none());
    }

    #[test]
    fn traced_and_untraced_runs_agree_on_virtual_time() {
        // Instrumentation must not perturb the simulation: same seed, with
        // and without tracing, must produce identical clocks.
        let traced = run_traced(11, TraceConfig::enabled());
        let plain = run_traced(11, TraceConfig::disabled());
        assert_eq!(traced.makespan_ns, plain.makespan_ns);
        assert_eq!(traced.rank_clock_ns, plain.rank_clock_ns);
    }
}
