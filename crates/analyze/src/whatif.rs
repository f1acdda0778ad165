//! What-if re-pricing: re-cost a recorded schedule under substituted
//! runtime knobs without re-running the workload.
//!
//! The replay program preserves a run's *structure* — per-rank op order
//! and cross-rank sync edges. Re-pricing rewrites the *costs*: each op's
//! duration (and the slack ahead of it) is scaled by an analytic model of
//! how the candidate knobs change that op class, and the replay engine
//! then re-times the whole schedule, letting cost changes propagate
//! through the recorded sync edges to a new makespan and blame split.
//!
//! Per-knob cost models (all ratios against the recorded baseline knobs):
//!
//! * **latency tiers** — a `StealAttempt`/`LockWait` round trip to rank
//!   `v` scales by `tier_new.scale(me, v, n) / tier_old.scale(me, v, n)`
//!   (an untiered recording has scale 1 everywhere).
//! * **victim cont/escape** — under tiered latency, a steal's expected
//!   cost multiplier is the bias mix `(1 − escape)·near_scale +
//!   escape·far_scale`; steal durations scale by the candidate/baseline
//!   mix ratio. Untiered recordings are distance-blind, so these knobs
//!   re-price to 1 there.
//! * **chunk** — a steal that moved `got` tasks moves `min(got, chunk')`
//!   under the candidate; duration scales by `0.5 + 0.5·got'/got` (the
//!   attempt's fixed round trip is ~half the bill, the per-task transfer
//!   the rest).
//! * **release fraction/threshold** — deliberately *not* re-priced: they
//!   change which steals exist at all (schedule structure), which replay
//!   cannot predict. The tuner explores them only under critical-path
//!   gating and validates with live runs.
//!
//! Re-pricing is deterministic arithmetic on a cloned program — same
//! candidate, same recording, same bytes out.

use scioto_sim::{LatencyTiers, ReplayProgram, TraceEvent};

/// The knob assignment a what-if scenario prices a recording under.
///
/// `baseline()` mirrors the PR-5 `TcConfig` defaults; the latency tier is
/// the recording's, not the collection's (untiered presets are `None`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Knobs {
    /// Locality-bias geometric continuation probability.
    pub victim_cont: f64,
    /// Locality-bias uniform-escape probability.
    pub victim_escape: f64,
    /// Steal chunk size.
    pub chunk: usize,
    /// Split release fraction (structural — carried for the tuner and the
    /// emitted config, never re-priced here).
    pub release_fraction: f64,
    /// Latency tiers the scenario runs under; `None` = distance-blind.
    pub tiers: Option<LatencyTiers>,
}

impl Knobs {
    /// The PR-5 runtime defaults under a distance-blind latency model.
    pub fn baseline() -> Self {
        Knobs {
            victim_cont: 0.7,
            victim_escape: 0.125,
            chunk: 10,
            release_fraction: 0.5,
            tiers: None,
        }
    }

    /// Expected steal-cost multiplier of the victim bias under `tiers`:
    /// biased draws land near, escapes land anywhere (priced as far).
    fn steal_mix(&self, tiers: &LatencyTiers) -> f64 {
        (1.0 - self.victim_escape) * tiers.near_scale + self.victim_escape * tiers.far_scale
    }
}

/// Tier scale for an op from `me` to `to`, treating an untiered model as
/// scale 1 everywhere.
fn tier_scale(tiers: &Option<LatencyTiers>, me: usize, to: usize, n: usize) -> f64 {
    match tiers {
        Some(t) => t.scale(me, to, n),
        None => 1.0,
    }
}

/// Scale `dur` by `f`, rounding to nearest — deterministic and exact for
/// the identity ratio.
fn scale_dur(dur: u64, f: f64) -> u64 {
    if f == 1.0 {
        return dur;
    }
    (dur as f64 * f).round() as u64
}

/// Re-price `prog` (recorded under `base`) as if it had run under `cand`.
///
/// Returns a new program with rewritten durations and deltas; run it with
/// [`scioto_sim::run_replay`] and analyze the result to score the
/// candidate. `reprice(p, k, k)` is the identity.
pub fn reprice(prog: &ReplayProgram, base: &Knobs, cand: &Knobs) -> ReplayProgram {
    let n = prog.nranks;
    // Victim-bias mix ratio only exists under a tiered candidate model;
    // the recorded mix is priced under the same tiers so the ratio
    // isolates the knob change from the latency change.
    let mix_ratio = match &cand.tiers {
        Some(t) => cand.steal_mix(t) / base.steal_mix(t),
        None => 1.0,
    };
    let mut out = prog.clone();
    for (me, ops) in out.ops.iter_mut().enumerate() {
        for op in ops.iter_mut() {
            let old = op.dur_ns;
            let new = match &mut op.ev {
                TraceEvent::StealAttempt { victim, got, dur_ns } => {
                    let lat = tier_scale(&cand.tiers, me, *victim as usize, n)
                        / tier_scale(&base.tiers, me, *victim as usize, n);
                    let chunk_f = if *got > 0 && cand.chunk < *got as usize {
                        let new_got = cand.chunk as u32;
                        let f = 0.5 + 0.5 * new_got as f64 / *got as f64;
                        *got = new_got;
                        f
                    } else {
                        1.0
                    };
                    let new = scale_dur(old, lat * mix_ratio * chunk_f);
                    *dur_ns = new;
                    new
                }
                TraceEvent::LockWait { target, dur_ns } => {
                    let lat = tier_scale(&cand.tiers, me, *target as usize, n)
                        / tier_scale(&base.tiers, me, *target as usize, n);
                    let new = scale_dur(old, lat);
                    *dur_ns = new;
                    new
                }
                // BarrierWait is pure waiting: the replay engine re-derives
                // its duration from the re-timed rendezvous.
                _ => old,
            };
            if new != old {
                // Shift the op's completion by the duration change. Spans
                // may overlap the preceding event (stamped at completion),
                // so the delta is adjusted by the difference rather than
                // rebuilt from the span — a shrunk duration can never push
                // the completion later.
                op.delta_ns = if new >= old {
                    op.delta_ns + (new - old)
                } else {
                    op.delta_ns.saturating_sub(old - new)
                };
                op.dur_ns = new;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::lower;
    use scioto_sim::{run_replay, Trace, TraceConfig, TraceSink};

    /// Duration carried by a span event (0 for instantaneous events).
    fn event_dur_of(ev: &TraceEvent) -> u64 {
        scioto_sim::event_dur(ev)
    }

    fn steal_trace() -> Trace {
        let sink = TraceSink::new(&TraceConfig::enabled(), 2);
        // Rank 0: two steals (one near, one far on a 2-ring everything is
        // near; distances only matter at larger n — this test uses the
        // untiered ratios), a lock wait, a TD poll.
        sink.emit(0, 100, || TraceEvent::StealAttempt { victim: 1, got: 10, dur_ns: 60 });
        sink.emit(0, 200, || TraceEvent::LockWait { target: 1, dur_ns: 40 });
        sink.emit(0, 300, || TraceEvent::TdProgress { dur_ns: 20 });
        sink.emit(1, 250, || TraceEvent::TdProgress { dur_ns: 10 });
        let mut t = sink.finish().unwrap();
        t.final_clock_ns = vec![310, 260];
        t
    }

    #[test]
    fn identity_reprice_is_a_noop() {
        let prog = lower(&steal_trace()).unwrap();
        let k = Knobs::baseline();
        let repriced = reprice(&prog, &k, &k);
        assert_eq!(
            run_replay(&prog).to_jsonl(),
            run_replay(&repriced).to_jsonl()
        );
    }

    #[test]
    fn chunk_reduction_shrinks_steal_cost_and_got() {
        let prog = lower(&steal_trace()).unwrap();
        let base = Knobs::baseline();
        let cand = Knobs { chunk: 5, ..base };
        let repriced = reprice(&prog, &base, &cand);
        match repriced.ops[0][0].ev {
            TraceEvent::StealAttempt { got, dur_ns, .. } => {
                assert_eq!(got, 5);
                // 0.5 + 0.5·(5/10) = 0.75 → 60 → 45.
                assert_eq!(dur_ns, 45);
            }
            ref e => panic!("unexpected event {e:?}"),
        }
        assert_eq!(repriced.ops[0][0].delta_ns, 100 - 60 + 45);
    }

    #[test]
    fn tiered_candidate_prices_by_ring_distance() {
        // 6 ranks: victim 1 is near rank 0 (d=1 ≤ radius 2), victim 3 is
        // far (d=3). Under nearfar tiers vs an untiered recording the two
        // steals scale by near_scale and far_scale respectively (mix ratio
        // is 1 because base and cand share the bias probabilities).
        let sink = TraceSink::new(&TraceConfig::enabled(), 6);
        sink.emit(0, 100, || TraceEvent::StealAttempt { victim: 1, got: 1, dur_ns: 100 });
        sink.emit(0, 300, || TraceEvent::StealAttempt { victim: 3, got: 1, dur_ns: 100 });
        let mut t = sink.finish().unwrap();
        t.final_clock_ns = vec![300, 0, 0, 0, 0, 0];
        let prog = lower(&t).unwrap();
        let base = Knobs::baseline();
        let cand = Knobs { tiers: Some(LatencyTiers::nearfar()), ..base };
        let repriced = reprice(&prog, &base, &cand);
        assert_eq!(event_dur_of(&repriced.ops[0][0].ev), 35); // ×0.35
        assert_eq!(event_dur_of(&repriced.ops[0][1].ev), 125); // ×1.25
    }

    #[test]
    fn escape_increase_raises_steal_mix_under_tiers() {
        let tiers = LatencyTiers::nearfar();
        let base = Knobs { tiers: Some(tiers), ..Knobs::baseline() };
        let hot = Knobs { victim_escape: 0.5, ..base };
        assert!(hot.steal_mix(&tiers) > base.steal_mix(&tiers));
        let prog = lower(&steal_trace()).unwrap();
        let repriced = reprice(&prog, &base, &hot);
        // Steal dur grew; lock/td untouched by this knob.
        assert!(event_dur_of(&repriced.ops[0][0].ev) > 60);
        assert_eq!(event_dur_of(&repriced.ops[0][1].ev), 40);
    }
}
