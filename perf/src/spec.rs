//! The metric lists, as code. `BENCHMARK.json` at the repo root states the
//! same lists for the driver; a test holds the two equal, entry by entry.

use crate::pipeline::STAGES;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// `layer.what_unit`, charset `[A-Za-z0-9_.-]`.
    pub name: String,
    /// Unit, charset `[A-Za-z0-9_/%.-]`.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

fn m(name: &str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, reported by every workload.
///
/// * `host_work_per_s` — work units (tasks executed; trace events for the
///   pipeline) per second of a reference-speed host: median over reps of
///   units ÷ rep wall × the host's slowdown during the rep
///   (`crate::hostref`).
/// * `sim_makespan_us` — virtual-time makespan, mean over the run's rep
///   slots (for `uts_conc_p2`, whose own makespan is host time: of the
///   same trees on a 2-rank virtual machine, the model's prediction of
///   that run). Exact for a seed.
/// * `setup_s` — input generation + sequential reference + single-rank
///   virtual baseline + two discarded warm-up reps, in seconds of a
///   reference-speed host; median of the run's set-ups.
///
/// The acceptance driver holds each metric's spread over ten *different
/// seeds* inside its bound, so the bounds follow what was measured there
/// (README, "First host-time table"): raw host time on this 2-core
/// sandbox differs by up to 20 % between runs of the same thing, at
/// reference speed still by 10 %, and the makespan at 256 ranks by 5 %
/// between seeds. Peak RSS is reported but cannot be bounded: on
/// `uts_conc_p2` it is 24–58 MB depending on which malloc arena each
/// thread lands in, run to run on the same seed.
pub fn end_to_end() -> Vec<Metric> {
    let bounded = |name, unit, better, bound| Metric {
        bound: Some(bound),
        ..m(name, unit, better)
    };
    vec![
        bounded("host_work_per_s", "1/s", Better::Higher, 0.25),
        bounded("sim_makespan_us", "us", Better::Lower, 0.15),
        bounded("setup_s", "s", Better::Lower, 0.25),
    ]
}

/// Single-layer metrics, reported by the traced run of every workload.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut v = vec![
        // Counts from the workload's own reps; exact in virtual time.
        m("sim.yields", "count", Lower),
        m("sim.blocks", "count", Lower),
        m("sim.unblocks", "count", Lower),
        m("sim.messages", "count", Lower),
        m("sim.events_per_host_s", "1/s", Higher),
        m("core.tasks_executed", "count", Higher),
        m("core.steals_attempted", "count", Lower),
        m("core.steals_succeeded", "count", Lower),
        m("core.steal_success_ratio", "ratio", Higher),
        m("core.tasks_stolen", "count", Lower),
        m("core.td_waves_max", "count", Lower),
        m("core.dirty_marks_sent", "count", Lower),
        m("core.dirty_marks_elided", "count", Higher),
        m("core.splits_released", "count", Lower),
        m("core.splits_reclaimed", "count", Lower),
        m("core.startup_rank_ns", "ns", Lower),
        m("app.sim_speedup", "ratio", Higher),
        // Blame from the program's own recording: shares of Σ rank time.
        m("app.vt_exec_share", "ratio", Higher),
        m("core.vt_steal_share", "ratio", Lower),
        m("armci.vt_lock_share", "ratio", Lower),
        m("core.vt_td_share", "ratio", Lower),
        m("sim.vt_barrier_share", "ratio", Lower),
        m("core.vt_idle_share", "ratio", Lower),
        m("core.vt_startup_share", "ratio", Lower),
        m("core.vt_critpath_us", "us", Lower),
        m("core.vt_steal_dist_mean", "hops", Lower),
        m("core.vt_steal_near_share", "ratio", Higher),
        // Host probes.
        m("det.monoclock_ns", "ns", Lower),
        m("det.mutex_uncontended_ns", "ns", Lower),
        m("sim.yield_switch_ns_p2", "ns", Lower),
        m("sim.yield_switch_ns_p256", "ns", Lower),
        m("sim.barrier_ns_p64", "ns", Lower),
        m("sim.spawn_teardown_us_p64_first", "us", Lower),
        m("sim.spawn_teardown_us_p64_warm", "us", Lower),
        m("sim.spawn_teardown_us_p256_first", "us", Lower),
        m("sim.spawn_teardown_us_p256_warm", "us", Lower),
        m("sim.conc_spawn_teardown_us_p2", "us", Lower),
        m("armci.put_ns", "ns", Lower),
        m("armci.get_ns", "ns", Lower),
        m("armci.acc_f64_ns", "ns", Lower),
        m("armci.fetch_add_ns", "ns", Lower),
        m("armci.lock_unlock_ns", "ns", Lower),
        m("armci.malloc_us_p64", "us", Lower),
        m("ga.get_patch_ns", "ns", Lower),
        m("ga.acc_patch_ns", "ns", Lower),
        m("armci.conc_put_ns", "ns", Lower),
        m("armci.conc_fetch_add_ns", "ns", Lower),
        m("armci.conc_lock_unlock_ns", "ns", Lower),
        m("core.conc_push_pop_ns", "ns", Lower),
        m("core.push_pop_ns", "ns", Lower),
        m("core.push_pop_traced_ns", "ns", Lower),
        m("core.steal_chunk_ns", "ns", Lower),
        m("core.insert_remote_ns", "ns", Lower),
        m("core.td_noop_phase_us_p8", "us", Lower),
        m("core.td_noop_phase_us_p64", "us", Lower),
        m("core.create_us_p64", "us", Lower),
        m("uts.child_sha1_ns", "ns", Lower),
        m("uts.seq_nodes_per_s", "1/s", Higher),
        m("uts.conc_tasks_per_s_p1", "1/s", Higher),
        m("uts.conc_tasks_per_s_p2", "1/s", Higher),
        m("scf.seq_fock_s", "s", Lower),
    ];
    // Trace tool chain: each stage's rate and its share of the pass.
    for (stage, rate) in STAGES {
        let unit = if rate == "mb_per_s" { "MB/s" } else { "1/s" };
        v.push(m(&format!("{stage}_{rate}"), unit, Higher));
        v.push(m(&format!("{stage}_share"), "ratio", Lower));
    }
    v.extend([
        // What the program's own recorder costs.
        m("sim.trace_events", "count", Lower),
        m("sim.trace_dropped", "count", Lower),
        m("sim.trace_overhead_ratio", "ratio", Lower),
        m("sim.trace_emit_ns_per_event", "ns", Lower),
        // Harness health.
        m("bench.peak_rss_mb", "MB", Lower),
        m("bench.reps", "count", Higher),
        m("bench.rep_wall_max_over_median", "ratio", Lower),
        m("bench.calib_ms", "ms", Lower),
        m("bench.calib_drift", "ratio", Lower),
    ]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn charset_ok(s: &str, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        for metric in &all {
            assert!(charset_ok(&metric.name, "_.-"), "name {:?}", metric.name);
            assert!(
                charset_ok(metric.unit, "_/%.-") && metric.unit.len() <= 16,
                "unit {:?}",
                metric.unit
            );
        }
        for w in WORKLOADS {
            assert!(charset_ok(w.name, "_.-"), "workload {:?}", w.name);
        }
        let mut names: Vec<&str> = all.iter().map(|x| x.name.as_str()).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
    }

    #[test]
    fn bounds_follow_the_contract() {
        let e2e = end_to_end();
        assert!(e2e
            .iter()
            .all(|x| x.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e2e
            .iter()
            .find(|x| x.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = e2e.iter().filter_map(|x| x.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "set-up gets the largest bound");
        assert!(per_layer().iter().all(|x| x.bound.is_none()));
    }
}
