//! The run spec shared by every table/figure bin: hot-path policy,
//! latency preset, single-point selection, and what to do with the traced
//! run. A bin names its workload; everything the command line says about
//! *how* to run it is parsed, applied, recorded and acted on here.

use scioto_sim::{
    BarrierKind, LatencyModel, LatencyTiers, MachineConfig, Report, SpeedModel, TraceConfig,
};
use scioto_uts::scioto_driver::SciotoUtsConfig;
use scioto_uts::TreeParams;

use crate::{Args, BenchOut};

/// `--latency flat|nearfar`: whether to attach the near/far distance
/// tiers to a figure's base latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyPreset {
    /// Distance-blind base model (the default).
    Flat,
    /// Base model with [`LatencyTiers::nearfar`] attached.
    NearFar,
}

impl LatencyPreset {
    /// `--latency`, [`LatencyPreset::Flat`] when absent.
    pub fn from_args(args: &Args) -> Self {
        LatencyPreset::from_flag(args, "latency")
    }

    /// The preset named by `--<key> flat|nearfar`, `Flat` when absent.
    pub fn from_flag(args: &Args, key: &str) -> Self {
        let choices = [
            ("flat", LatencyPreset::Flat),
            ("nearfar", LatencyPreset::NearFar),
        ];
        args.choice(key, &choices).unwrap_or(LatencyPreset::Flat)
    }

    /// The tiers this preset attaches, if any.
    pub fn tiers(self) -> Option<LatencyTiers> {
        match self {
            LatencyPreset::Flat => None,
            LatencyPreset::NearFar => Some(LatencyTiers::nearfar()),
        }
    }

    /// Apply the preset to a figure's base latency model.
    pub fn apply(self, base: LatencyModel) -> LatencyModel {
        match self.tiers() {
            None => base,
            Some(t) => base.with_tiers(t),
        }
    }

    /// The flag value that selects this preset.
    pub fn name(self) -> &'static str {
        match self {
            LatencyPreset::Flat => "flat",
            LatencyPreset::NearFar => "nearfar",
        }
    }

    /// Record the `latency` bench param — only when non-default, so runs
    /// under the flat model keep the params of the baselines that predate
    /// the key.
    pub fn record(self, bench: &mut BenchOut) {
        if self != LatencyPreset::Flat {
            bench.param("latency", self.name());
        }
    }
}

/// The hot-path policy knobs: `--victim uniform|locality`, `--barrier
/// flat|tree`, `--td-batch on|off`. The defaults are locality victims, the
/// tree barrier and batched termination detection; `uniform` is the
/// paper's victim selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyFlags {
    /// Steal victim-selection policy.
    pub victim: scioto::VictimPolicy,
    /// Machine barrier release model.
    pub barrier: BarrierKind,
    /// Batched termination detection.
    pub td_batch: bool,
}

impl PolicyFlags {
    fn from_args(args: &Args) -> Self {
        use scioto::VictimPolicy::{Locality, Uniform};
        PolicyFlags {
            victim: args
                .choice("victim", &[("uniform", Uniform), ("locality", Locality)])
                .unwrap_or(Locality),
            barrier: args
                .choice(
                    "barrier",
                    &[("flat", BarrierKind::Flat), ("tree", BarrierKind::Tree)],
                )
                .unwrap_or(BarrierKind::Tree),
            td_batch: args
                .choice("td-batch", &[("on", true), ("off", false)])
                .unwrap_or(true),
        }
    }

    /// A task-collection config with this policy's victim and TD knobs.
    pub fn tc(&self, cfg: scioto::TcConfig) -> scioto::TcConfig {
        cfg.with_victim(self.victim).with_td_batch(self.td_batch)
    }

    /// A Scioto UTS config over `params` with this policy's knobs.
    pub fn uts(&self, params: TreeParams) -> SciotoUtsConfig {
        SciotoUtsConfig {
            victim: Some(self.victim),
            td_batch: Some(self.td_batch),
            ..SciotoUtsConfig::new(params)
        }
    }
}

/// Everything the command line says about how a bin runs its workload.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Hot-path policy knobs.
    pub policy: PolicyFlags,
    /// Latency preset applied to the figure's base model.
    pub latency: LatencyPreset,
    /// `--only-ranks N`: restrict a sweep to the single rank count `N`
    /// (how the large-scale baseline points run without the ladder below
    /// them).
    pub only_ranks: Option<usize>,
    trace_out: Option<String>,
    trace_summary: Option<String>,
    analysis_out: Option<String>,
    trace_ring: Option<usize>,
    trace_batch: Option<usize>,
    race_check: bool,
    predict: bool,
    deadlock: bool,
    replay_check: bool,
}

impl RunSpec {
    pub fn from_args(args: &Args) -> RunSpec {
        RunSpec {
            policy: PolicyFlags::from_args(args),
            latency: LatencyPreset::from_args(args),
            only_ranks: args.get_parsed("only-ranks"),
            trace_out: args.get_opt("trace-out"),
            trace_summary: args.get_opt("trace-summary"),
            analysis_out: args.get_opt("analysis-out"),
            trace_ring: args.get_parsed("trace-ring"),
            trace_batch: args.get_parsed("trace-batch"),
            race_check: args.has("race-check"),
            predict: args.has("predict"),
            deadlock: args.has("deadlock"),
            replay_check: args.has("replay-check"),
        }
    }

    /// The virtual-time machine for `p` ranks of a figure whose network is
    /// `base_latency` and whose CPUs are `speed`.
    pub fn machine(
        &self,
        p: usize,
        base_latency: LatencyModel,
        speed: SpeedModel,
    ) -> MachineConfig {
        MachineConfig::virtual_time(p)
            .with_latency(self.latency.apply(base_latency))
            .with_speed(speed)
            .with_barrier(self.policy.barrier)
    }

    /// Record the spec's params so `bench_diff` can tell configurations
    /// apart.
    pub fn record(&self, bench: &mut BenchOut) {
        use scioto::VictimPolicy::{Locality, Uniform};
        bench.param(
            "victim",
            match self.policy.victim {
                Uniform => "uniform",
                Locality => "locality",
            },
        );
        bench.param(
            "barrier",
            match self.policy.barrier {
                BarrierKind::Flat => "flat",
                BarrierKind::Tree => "tree",
            },
        );
        bench.param("td_batch", if self.policy.td_batch { "on" } else { "off" });
        self.latency.record(bench);
        if let Some(o) = self.only_ranks {
            bench.param("only_ranks", o);
        }
    }

    /// Whether a sweep runs the point `p` (`--only-ranks` keeps one).
    pub fn runs(&self, p: usize) -> bool {
        self.only_ranks.is_none_or(|o| o == p)
    }

    /// Did the command line ask for anything of a traced run — a trace
    /// dump, an analysis report or one of the checks? Any of them makes a
    /// bin run its dedicated traced configuration.
    pub fn obs_requested(&self) -> bool {
        self.trace_out.is_some()
            || self.analysis_out.is_some()
            || self.race_check
            || self.predict
            || self.deadlock
            || self.replay_check
    }

    /// The trace configuration of the traced run: enabled, with the
    /// per-rank ring capacity from `--trace-ring N` (events beyond it are
    /// dropped oldest-first and counted in the trace's `dropped`) and the
    /// staging batch from `--trace-batch N` (0 or 1 publishes every
    /// event; the default is [`scioto_sim::DEFAULT_TRACE_BATCH`]).
    pub fn trace_config(&self) -> TraceConfig {
        let mut cfg = TraceConfig::enabled();
        if let Some(cap) = self.trace_ring {
            cfg = cfg.with_capacity(cap);
        }
        if let Some(b) = self.trace_batch {
            cfg = cfg.with_batch(b);
        }
        cfg
    }

    /// Do what the command line asked of the traced run `report`: dump
    /// the trace and the analysis, then run the requested checks. A check
    /// with findings exits 1; a trace it cannot work on (ring overflow
    /// dropped events — rerun with a larger `--trace-ring`) exits 2.
    /// Panics if the report carries no trace.
    pub fn observe(&self, report: &Report) {
        if !self.obs_requested() {
            return;
        }
        let trace = report
            .trace
            .as_ref()
            .expect("RunSpec::observe needs a report from a tracing-enabled run");
        self.dump_trace(trace);
        self.dump_analysis(trace);
        if self.race_check
            && !verdict("race check", scioto_race::check_trace(trace), |v| {
                v.is_clean()
            })
        {
            std::process::exit(1);
        }
        let mut clean = true;
        if self.predict {
            clean &= verdict("predict", scioto_race::predict(trace), |v| v.is_clean());
        }
        if self.deadlock {
            clean &= verdict("deadlock check", scioto_race::check_deadlocks(trace), |v| {
                v.is_clean()
            });
        }
        if !clean {
            std::process::exit(1);
        }
        if self.replay_check {
            replay_check(trace);
        }
    }

    /// Write the trace to the `--trace-out` path: Chrome `trace_event`
    /// JSON by default, flat JSONL when the path ends in `.jsonl`; with
    /// `--trace-summary <path>` the human-readable digest is appended
    /// there too.
    fn dump_trace(&self, trace: &scioto_sim::Trace) {
        let Some(path) = &self.trace_out else {
            return;
        };
        let body = if path.ends_with(".jsonl") {
            trace.to_jsonl()
        } else {
            trace.to_chrome_json()
        };
        std::fs::write(path, body).unwrap_or_else(|e| panic!("writing trace to {path}: {e}"));
        eprintln!(
            "trace: {} events ({} ranks) written to {path}",
            trace.total_events(),
            trace.nranks()
        );
        if let Some(spath) = &self.trace_summary {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(spath)
                .unwrap_or_else(|e| panic!("opening {spath}: {e}"));
            write!(f, "{}", trace.summary()).unwrap_or_else(|e| panic!("writing {spath}: {e}"));
            eprintln!("trace summary appended to {spath}");
        }
    }

    /// Analyze the trace and write the `scioto-analysis-v1` JSON to the
    /// `--analysis-out` path (human text when it ends in `.txt`).
    /// Ring-overflow and truncation warnings are mirrored to stderr so a
    /// lossy trace never passes silently.
    fn dump_analysis(&self, trace: &scioto_sim::Trace) {
        let Some(path) = &self.analysis_out else {
            return;
        };
        let analysis = scioto_analyze::analyze(trace);
        for w in &analysis.warnings {
            eprintln!("analysis WARNING: {w}");
        }
        let body = if path.ends_with(".txt") {
            analysis.to_text()
        } else {
            analysis.to_json()
        };
        std::fs::write(path, body).unwrap_or_else(|e| panic!("writing analysis to {path}: {e}"));
        eprintln!(
            "analysis: {} ranks, makespan {} ns, written to {path}",
            analysis.ranks, analysis.makespan_ns
        );
    }
}

/// Print one checker's verdict and return whether it is clean; exit 2
/// when the checker could not work on the trace.
fn verdict<V: std::fmt::Display>(
    what: &str,
    result: Result<V, String>,
    is_clean: impl Fn(&V) -> bool,
) -> bool {
    match result {
        Ok(v) => {
            eprint!("{v}");
            is_clean(&v)
        }
        Err(e) => {
            eprintln!("{what} error: {e}");
            std::process::exit(2);
        }
    }
}

/// Lower the trace to a replay program, re-execute it on the virtual-time
/// kernel, and verify the replay reproduces the live run's trace — and
/// therefore its blame decomposition and critical path — byte for byte.
/// Exits 1 on a mismatch and 2 when the trace cannot be lowered.
fn replay_check(trace: &scioto_sim::Trace) {
    let prog = match scioto_analyze::lower(trace) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("replay check error: {e}");
            std::process::exit(2);
        }
    };
    let replayed = scioto_sim::run_replay(&prog);
    if replayed.to_jsonl() != trace.to_jsonl() {
        eprintln!("replay check FAILED: replayed trace differs from the live recording");
        std::process::exit(1);
    }
    let live = scioto_analyze::analyze(trace).to_json();
    let again = scioto_analyze::analyze(&replayed).to_json();
    if live != again {
        eprintln!("replay check FAILED: replayed analysis differs from the live analysis");
        std::process::exit(1);
    }
    eprintln!(
        "replay check OK: {} events over {} ranks reproduced byte-identically",
        trace.total_events(),
        trace.nranks()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bin: &str, raw: &[&str]) -> RunSpec {
        let args = Args::try_new(bin, raw.iter().map(|s| s.to_string()).collect()).unwrap();
        RunSpec::from_args(&args)
    }

    #[test]
    fn latency_preset_applies_tiers() {
        let base = LatencyModel::cluster();
        assert_eq!(LatencyPreset::Flat.apply(base), base);
        assert_eq!(
            LatencyPreset::NearFar.apply(base),
            LatencyModel::cluster_nearfar()
        );
    }

    #[test]
    fn default_spec_records_the_default_policy_and_nothing_else() {
        let s = spec("fig7_uts_cluster", &[]);
        assert!(!s.obs_requested());
        assert!(s.runs(2) && s.runs(1024));
        let mut b = BenchOut::new("x");
        s.record(&mut b);
        let params: Vec<(&str, &str)> = b
            .params
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            params,
            vec![
                ("barrier", "tree"),
                ("td_batch", "on"),
                ("victim", "locality")
            ]
        );
    }

    #[test]
    fn individual_knobs_and_sweep_selection_are_recorded() {
        let s = spec(
            "fig7_uts_cluster",
            &[
                "--victim",
                "uniform",
                "--barrier",
                "flat",
                "--td-batch",
                "off",
                "--latency",
                "nearfar",
                "--only-ranks",
                "1024",
                "--race-check",
            ],
        );
        assert!(s.obs_requested());
        assert!(s.runs(1024) && !s.runs(512));
        let cfg = s.machine(4, LatencyModel::cluster(), SpeedModel::uniform(4));
        assert_eq!(cfg.latency, LatencyModel::cluster_nearfar());
        assert_eq!(cfg.barrier, BarrierKind::Flat);
        let mut b = BenchOut::new("x");
        s.record(&mut b);
        assert_eq!(b.params["victim"], "uniform");
        assert_eq!(b.params["barrier"], "flat");
        assert_eq!(b.params["td_batch"], "off");
        assert_eq!(b.params["latency"], "nearfar");
        assert_eq!(b.params["only_ranks"], "1024");
    }
}
