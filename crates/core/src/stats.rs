//! Per-process statistics for a `tc_process` phase.
//!
//! **Single writer.** `counters[r]` is written only by rank `r`'s own
//! thread — its adds, its executions, its steals, its owner queue
//! operations, its `reset` — so an update is a Relaxed load and a Relaxed
//! store ([`Counter::add`]), not a locked read-modify-write; any thread
//! may read a snapshot (a racing reader sees some recent value of each
//! field, never a torn one).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One per-rank statistic, written only by its rank (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.set(self.get() + n);
    }

    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    #[inline]
    pub(crate) fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }
}

/// Mutable per-rank counters, updated during processing.
#[derive(Debug, Default)]
pub(crate) struct RankCounters {
    pub tasks_executed: Counter,
    pub tasks_spawned: Counter,
    pub steals_attempted: Counter,
    pub steals_succeeded: Counter,
    pub tasks_stolen: Counter,
    pub td_waves: Counter,
    pub dirty_marks_sent: Counter,
    pub dirty_marks_elided: Counter,
    pub splits_released: Counter,
    pub splits_reclaimed: Counter,
    /// Clock value (ns) when this rank completed its first `tc_process`
    /// prologue — everything before it is startup: world init, collective
    /// creations, the commit/entry barriers. Recorded once per collection
    /// (see [`RankCounters::record_startup`]) and deliberately NOT cleared
    /// by [`RankCounters::reset`]: startup happens once per run, not once
    /// per phase.
    pub startup_ns: Counter,
}

impl RankCounters {
    /// Record the startup-complete clock value, first call wins.
    pub(crate) fn record_startup(&self, now_ns: u64) -> bool {
        if self.startup_ns.get() != 0 {
            return false;
        }
        // A 0 ns startup is indistinguishable from "unrecorded"; clamp to
        // 1 ns so record-once still holds (only reachable under a
        // zero-latency model).
        self.startup_ns.set(now_ns.max(1));
        true
    }

    pub(crate) fn snapshot(&self) -> ProcessStats {
        ProcessStats {
            tasks_executed: self.tasks_executed.get(),
            tasks_spawned: self.tasks_spawned.get(),
            steals_attempted: self.steals_attempted.get(),
            steals_succeeded: self.steals_succeeded.get(),
            tasks_stolen: self.tasks_stolen.get(),
            td_waves: self.td_waves.get(),
            dirty_marks_sent: self.dirty_marks_sent.get(),
            dirty_marks_elided: self.dirty_marks_elided.get(),
            splits_released: self.splits_released.get(),
            splits_reclaimed: self.splits_reclaimed.get(),
            startup_ns: self.startup_ns.get(),
        }
    }

    /// Clear the per-phase counters. `startup_ns` is sticky (see its
    /// field docs) and survives resets.
    pub(crate) fn reset(&self) {
        self.tasks_executed.set(0);
        self.tasks_spawned.set(0);
        self.steals_attempted.set(0);
        self.steals_succeeded.set(0);
        self.tasks_stolen.set(0);
        self.td_waves.set(0);
        self.dirty_marks_sent.set(0);
        self.dirty_marks_elided.set(0);
        self.splits_released.set(0);
        self.splits_reclaimed.set(0);
    }
}

/// Immutable statistics for one rank's participation in one
/// [`crate::TaskCollection::process`] phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcessStats {
    /// Tasks this rank executed.
    pub tasks_executed: u64,
    /// Tasks this rank added (seeds and subtasks).
    pub tasks_spawned: u64,
    /// Steal operations attempted.
    pub steals_attempted: u64,
    /// Steal operations that returned at least one task.
    pub steals_succeeded: u64,
    /// Tasks acquired by stealing.
    pub tasks_stolen: u64,
    /// Termination-detection waves this rank participated in. Merging
    /// sums this like every other field; use [`StatsSummary::td_waves_max`]
    /// for the per-rank maximum (the number of waves the phase ran).
    pub td_waves: u64,
    /// Dirty-mark messages sent to steal victims.
    pub dirty_marks_sent: u64,
    /// Dirty marks avoided by the §5.3 votes-before optimization.
    pub dirty_marks_elided: u64,
    /// Times the owner moved the split pointer to release work.
    pub splits_released: u64,
    /// Times the owner reclaimed shared work for local execution.
    pub splits_reclaimed: u64,
    /// Clock value (ns) when this rank first completed a `process`
    /// prologue — the per-rank startup cost (world init, collective
    /// creations, entry barriers). Merging sums it, so an aggregate is
    /// total rank-nanoseconds spent in startup. 0 if `process` never ran.
    pub startup_ns: u64,
}

impl ProcessStats {
    /// Accumulate `other` into `self` (for cross-rank aggregation). Every
    /// field is summed — including `td_waves`, so merged totals really are
    /// totals. Phase-level wave counts live in
    /// [`StatsSummary::td_waves_max`].
    pub fn merge(&mut self, other: &ProcessStats) {
        self.tasks_executed += other.tasks_executed;
        self.tasks_spawned += other.tasks_spawned;
        self.steals_attempted += other.steals_attempted;
        self.steals_succeeded += other.steals_succeeded;
        self.tasks_stolen += other.tasks_stolen;
        self.td_waves += other.td_waves;
        self.dirty_marks_sent += other.dirty_marks_sent;
        self.dirty_marks_elided += other.dirty_marks_elided;
        self.splits_released += other.splits_released;
        self.splits_reclaimed += other.splits_reclaimed;
        self.startup_ns += other.startup_ns;
    }
}

/// Aggregated statistics across all ranks of a processing phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSummary {
    /// Field-wise sums over all ranks.
    pub totals: ProcessStats,
    /// Largest per-rank `td_waves` — the number of waves the phase ran
    /// (the root participates in every wave).
    pub td_waves_max: u64,
    /// Number of ranks merged.
    pub ranks: usize,
}

impl StatsSummary {
    /// Merge per-rank stats into a summary.
    pub fn from_ranks(stats: &[ProcessStats]) -> Self {
        let mut totals = ProcessStats::default();
        let mut td_waves_max = 0;
        for s in stats {
            totals.merge(s);
            td_waves_max = td_waves_max.max(s.td_waves);
        }
        StatsSummary {
            totals,
            td_waves_max,
            ranks: stats.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset() {
        let c = RankCounters::default();
        c.tasks_executed.add(3);
        c.steals_attempted.add(2);
        let s = c.snapshot();
        assert_eq!(s.tasks_executed, 3);
        assert_eq!(s.steals_attempted, 2);
        c.reset();
        assert_eq!(c.snapshot(), ProcessStats::default());
    }

    #[test]
    fn merge_is_fieldwise_sum() {
        // Regression: `merge` used to max-merge td_waves while summing
        // every other field, contradicting the "totals" documentation.
        // Pin the semantics: merge sums everything; the summary carries
        // the wave maximum separately.
        let a = ProcessStats {
            tasks_executed: 5,
            steals_attempted: 3,
            td_waves: 2,
            ..Default::default()
        };
        let b = ProcessStats {
            tasks_executed: 7,
            steals_attempted: 1,
            td_waves: 9,
            ..Default::default()
        };
        let sum = StatsSummary::from_ranks(&[a, b]);
        assert_eq!(sum.totals.tasks_executed, 12);
        assert_eq!(sum.totals.steals_attempted, 4);
        assert_eq!(sum.totals.td_waves, 11, "td_waves is summed like the rest");
        assert_eq!(sum.td_waves_max, 9, "phase wave count is the max");
        assert_eq!(sum.ranks, 2);
    }
}
