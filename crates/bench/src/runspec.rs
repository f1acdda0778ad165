//! The run spec shared by every table/figure subcommand: hot-path policy,
//! latency preset, single-point selection, and what to do with the traced
//! run. A subcommand names its workload; everything the command line says
//! about *how* to run it is parsed, applied, recorded and acted on here.

use scioto::VictimPolicy::{self, Locality, Uniform};
use scioto_scf::{LoadBalance, ParallelScfConfig};
use scioto_sim::{
    BarrierKind, LatencyModel, LatencyTiers, MachineConfig, Report, SpeedModel, TraceConfig,
};
use scioto_uts::scioto_driver::SciotoUtsConfig;
use scioto_uts::TreeParams;

use crate::front::{self, Exit, Outcome};
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

/// The values of `--victim`, `--barrier` and `--latency` as
/// the command line and the bench params spell them.
const VICTIMS: [(&str, VictimPolicy); 2] = [("uniform", Uniform), ("locality", Locality)];
const BARRIERS: [(&str, BarrierKind); 2] =
    [("flat", BarrierKind::Flat), ("tree", BarrierKind::Tree)];
const LATENCIES: [(&str, LatencyPreset); 2] =
    [("flat", LatencyPreset::Flat), ("nearfar", LatencyPreset::NearFar)];

/// The spelling of `value` in `choices`.
fn name_of<T: PartialEq>(choices: &[(&'static str, T)], value: T) -> &'static str {
    let found = choices.iter().find(|(_, v)| *v == value);
    found.expect("every value has a spelling").0
}

impl LatencyPreset {
    /// `--latency`, [`LatencyPreset::Flat`] when absent.
    pub fn from_args(args: &Args) -> Self {
        args.choice("latency", &LATENCIES).unwrap_or(LatencyPreset::Flat)
    }

    /// Apply the preset to a figure's base latency model.
    pub fn apply(self, base: LatencyModel) -> LatencyModel {
        match self {
            LatencyPreset::Flat => base,
            LatencyPreset::NearFar => base.with_tiers(LatencyTiers::nearfar()),
        }
    }

    /// The flag value that selects this preset.
    pub fn name(self) -> &'static str {
        name_of(&LATENCIES, self)
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

/// The hot-path policy knobs: `--victim uniform|locality` and `--barrier
/// flat|tree`. The defaults are locality victims and the tree barrier;
/// `uniform` and `flat` are the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyFlags {
    /// Steal victim-selection policy.
    pub victim: VictimPolicy,
    /// Machine barrier release model.
    pub barrier: BarrierKind,
}

impl PolicyFlags {
    fn from_args(args: &Args) -> Self {
        PolicyFlags {
            victim: args.choice("victim", &VICTIMS).unwrap_or(Locality),
            barrier: args.choice("barrier", &BARRIERS).unwrap_or(BarrierKind::Tree),
        }
    }

    /// A task-collection config with this policy's victim knob.
    pub fn tc(&self, cfg: scioto::TcConfig) -> scioto::TcConfig {
        cfg.with_victim(self.victim)
    }

    /// A Scioto UTS config over `params` with this policy's knobs.
    pub fn uts(&self, params: TreeParams) -> SciotoUtsConfig {
        let mut cfg = SciotoUtsConfig::new(params);
        cfg.tc = self.tc(cfg.tc);
        cfg
    }

    /// A fixed-work parallel SCF config with this policy's knobs: `iters`
    /// Roothaan iterations whatever the convergence (the figures compare
    /// load balancers, not convergence paths).
    pub fn scf(&self, lb: LoadBalance, iters: usize) -> ParallelScfConfig {
        let mut cfg = ParallelScfConfig {
            lb,
            block: 4,
            chunk: 4,
            victim: self.victim,
            ..Default::default()
        };
        cfg.scf.max_iters = iters;
        cfg.scf.tol = 0.0;
        cfg
    }
}

/// Everything the command line says about how a subcommand runs its
/// workload.
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
    analysis_out: Option<String>,
    trace_ring: Option<usize>,
    check: bool,
}

impl RunSpec {
    pub fn from_args(args: &Args) -> RunSpec {
        RunSpec {
            policy: PolicyFlags::from_args(args),
            latency: LatencyPreset::from_args(args),
            only_ranks: args.get_parsed("only-ranks"),
            trace_out: args.get_opt("trace-out"),
            analysis_out: args.get_opt("analysis-out"),
            trace_ring: args.get_parsed("trace-ring"),
            check: args.has("check"),
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
        bench.param("victim", name_of(&VICTIMS, self.policy.victim));
        bench.param("barrier", name_of(&BARRIERS, self.policy.barrier));
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
    /// dump, an analysis report or the check? Any of them makes a
    /// subcommand run its dedicated traced configuration.
    pub fn obs_requested(&self) -> bool {
        self.trace_out.is_some() || self.analysis_out.is_some() || self.check
    }

    /// The trace configuration of the traced run: enabled, with the
    /// per-rank ring capacity from `--trace-ring N` (events beyond it are
    /// dropped oldest-first and counted in the trace's `dropped`).
    pub fn trace_config(&self) -> TraceConfig {
        match self.trace_ring {
            Some(cap) => TraceConfig::enabled().with_capacity(cap),
            None => TraceConfig::enabled(),
        }
    }

    /// Do what the command line asked of the traced run `report`: dump
    /// the trace (Chrome `trace_event` JSON, or flat JSONL to a `.jsonl`
    /// path) and the analysis (its text, census first, to a `.txt` path),
    /// then, under `--check`, give the trace its verdict ([`front::check`])
    /// on stderr. Findings and a failed replay self-check are exit 1; a
    /// trace the check cannot work on (ring overflow dropped events —
    /// rerun with a larger `--trace-ring`) is exit 2. Panics if the report
    /// carries no trace.
    pub fn observe(&self, report: &Report) -> Outcome {
        if !self.obs_requested() {
            return Ok(());
        }
        let trace = report
            .trace
            .as_ref()
            .expect("RunSpec::observe needs a report from a tracing-enabled run");
        if let Some(path) = &self.trace_out {
            front::write_trace(path, trace)?;
        }
        if let Some(path) = &self.analysis_out {
            front::write_analysis(path, &scioto_analyze::analyze(trace))?;
        }
        if self.check {
            let verdict = front::check(trace)?;
            eprint!("{}", verdict.to_text(""));
            if !verdict.is_clean() {
                return Err(Exit::failed("the traced run failed its check"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bin: &'static str, raw: &[&str]) -> RunSpec {
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
                "--latency",
                "nearfar",
                "--only-ranks",
                "1024",
                "--check",
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
        assert_eq!(b.params["latency"], "nearfar");
        assert_eq!(b.params["only_ranks"], "1024");
    }
}
