//! The trace tool chain as one workload: record a UTS run, export it,
//! read it back, and put the recording through every analysis the repo
//! ships. Each stage is one public call, timed from here.

use scioto_analyze::{analyze, jsonl, lower};
use scioto_det::MonoClock;
use scioto_race::{check_deadlocks, check_trace, predict};
use scioto_sim::{run_replay, MachineConfig};
use scioto_uts::TreeParams;

use crate::spans::SpanId;
use crate::workloads::{run_uts, Checks, Rec, Run};

/// The stages in pass order, with the unit each one's rate is given in:
/// the two stages that stream text are priced per MB of JSONL, the rest
/// per trace event.
pub const STAGES: [(&str, &str); 9] = [
    ("sim.traced_run", "events_per_s"),
    ("sim.to_jsonl", "mb_per_s"),
    ("analyze.parse", "mb_per_s"),
    ("analyze.report", "events_per_s"),
    ("race.hb", "events_per_s"),
    ("race.predict", "events_per_s"),
    ("race.deadlock", "events_per_s"),
    ("analyze.lower", "events_per_s"),
    ("sim.replay", "events_per_s"),
];

/// Host time and work of one stage of one pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stage {
    /// Stage name from [`STAGES`].
    pub name: &'static str,
    /// Host ns in the stage's call.
    pub ns: u64,
    /// Trace events, or MB of JSONL, the stage handled.
    pub work: f64,
}

impl Stage {
    /// Work per host second (0 for a stage that did not run).
    pub fn rate(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.work / (self.ns as f64 / 1e9)
        }
    }
}

struct StageTimer<'a> {
    rec: Option<Rec<'a>>,
    pass: Option<SpanId>,
    /// Host ns of the stages run so far, in [`STAGES`] order.
    done: Vec<u64>,
}

impl StageTimer<'_> {
    /// Time `f` as the next stage of [`STAGES`].
    fn stage<R>(&mut self, f: impl FnOnce(Option<SpanId>) -> R) -> R {
        let (name, _) = STAGES[self.done.len()];
        let span = self.rec.map(|r| r.spans.begin(name, self.pass, r.rep));
        let clock = MonoClock::new();
        let out = f(span);
        let ns = clock.now_ns();
        if let (Some(r), Some(id)) = (self.rec, span) {
            r.spans.end(id);
        }
        self.done.push(ns);
        out
    }
}

/// One pass over `tree` on `cfg` (which must have tracing on). The rep's
/// wall time is the sum of the nine stages; the byte-for-byte comparison
/// of the replayed recording happens after the clock stops.
pub fn pass(cfg: MachineConfig, tree: TreeParams, rec: Option<Rec>, checks: &mut Checks) -> Run {
    let pass = rec.map(|r| r.spans.begin("pipeline.pass", None, r.rep));
    let mut t = StageTimer {
        rec,
        pass,
        done: Vec::new(),
    };

    let mut run = t.stage(|span| run_uts(cfg, tree, rec, span));
    let trace = run
        .trace
        .take()
        .expect("the pipeline's machine records a trace");
    let text = t.stage(|_| trace.to_jsonl());
    let parsed = t.stage(|_| jsonl::parse(&text)).unwrap_or_else(|e| {
        checks.check(false, || format!("recorded JSONL does not parse: {e}"));
        trace.clone()
    });
    let report = t.stage(|_| analyze(&parsed));
    let hb = t.stage(|_| check_trace(&parsed));
    let predicted = t.stage(|_| predict(&parsed));
    let deadlocks = t.stage(|_| check_deadlocks(&parsed));
    let program = t.stage(|_| lower(&parsed));
    let replayed = program.as_ref().ok().map(|p| t.stage(|_| run_replay(p)));
    if let (Some(r), Some(id)) = (rec, pass) {
        r.spans.end(id);
    }

    let dropped: u64 = trace.dropped.iter().sum();
    checks.check(dropped == 0, || {
        format!("trace ring dropped {dropped} events")
    });
    checks.check(report.warnings.is_empty(), || {
        format!("analysis warnings: {:?}", report.warnings)
    });
    checks.check(report.critical_path.length_ns == run.makespan_ns, || {
        "critical path does not span the makespan".into()
    });
    checks.check(hb.as_ref().is_ok_and(|r| r.is_clean()), || {
        format!("happens-before check: {hb:?}")
    });
    checks.check(predicted.as_ref().is_ok_and(|r| r.is_clean()), || {
        format!("race prediction: {predicted:?}")
    });
    checks.check(deadlocks.as_ref().is_ok_and(|r| r.is_clean()), || {
        format!("deadlock prediction: {deadlocks:?}")
    });
    checks.check(program.is_ok(), || {
        format!(
            "recording does not lower to a replay program: {:?}",
            program.as_ref().err()
        )
    });
    checks.check(replayed.is_some_and(|r| r.to_jsonl() == text), || {
        "replayed JSONL differs from the recording".into()
    });

    let events = trace.total_events() as f64;
    let mb = text.len() as f64 / 1e6;
    // A stage that did not run (no replay without a program) counts 0 ns.
    run.stages = STAGES
        .iter()
        .enumerate()
        .map(|(i, &(name, unit))| Stage {
            name,
            ns: t.done.get(i).copied().unwrap_or(0),
            work: if unit == "mb_per_s" { mb } else { events },
        })
        .collect();
    run.wall_ns = run.stages.iter().map(|s| s.ns).sum();
    run.units = trace.total_events() as u64;
    run.trace = Some(trace);
    run
}
