//! Per-process statistics for a `tc_process` phase.

use std::sync::atomic::{AtomicU64, Ordering};

/// Mutable per-rank counters, updated during processing.
#[derive(Debug, Default)]
pub(crate) struct RankCounters {
    pub tasks_executed: AtomicU64,
    pub tasks_spawned: AtomicU64,
    pub steals_attempted: AtomicU64,
    pub steals_succeeded: AtomicU64,
    pub tasks_stolen: AtomicU64,
    pub td_waves: AtomicU64,
    pub dirty_marks_sent: AtomicU64,
    pub dirty_marks_elided: AtomicU64,
    pub splits_released: AtomicU64,
    pub splits_reclaimed: AtomicU64,
    /// Clock value (ns) when this rank completed its first `tc_process`
    /// prologue — everything before it is startup: world init, collective
    /// creations, the commit/entry barriers. Recorded once per collection
    /// (see [`RankCounters::record_startup`]) and deliberately NOT cleared
    /// by [`RankCounters::reset`]: startup happens once per run, not once
    /// per phase.
    pub startup_ns: AtomicU64,
}

impl RankCounters {
    /// Record the startup-complete clock value, first call wins. The
    /// caller is this rank's own thread, so load-then-store is race-free.
    pub(crate) fn record_startup(&self, now_ns: u64) -> bool {
        if self.startup_ns.load(Ordering::Relaxed) != 0 {
            return false;
        }
        // A 0 ns startup is indistinguishable from "unrecorded"; clamp to
        // 1 ns so record-once still holds (only reachable under a
        // zero-latency model).
        self.startup_ns.store(now_ns.max(1), Ordering::Relaxed);
        true
    }

    pub(crate) fn snapshot(&self) -> ProcessStats {
        ProcessStats {
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            tasks_spawned: self.tasks_spawned.load(Ordering::Relaxed),
            steals_attempted: self.steals_attempted.load(Ordering::Relaxed),
            steals_succeeded: self.steals_succeeded.load(Ordering::Relaxed),
            tasks_stolen: self.tasks_stolen.load(Ordering::Relaxed),
            td_waves: self.td_waves.load(Ordering::Relaxed),
            dirty_marks_sent: self.dirty_marks_sent.load(Ordering::Relaxed),
            dirty_marks_elided: self.dirty_marks_elided.load(Ordering::Relaxed),
            splits_released: self.splits_released.load(Ordering::Relaxed),
            splits_reclaimed: self.splits_reclaimed.load(Ordering::Relaxed),
            startup_ns: self.startup_ns.load(Ordering::Relaxed),
        }
    }

    /// Clear the per-phase counters. `startup_ns` is sticky (see its
    /// field docs) and survives resets.
    pub(crate) fn reset(&self) {
        self.tasks_executed.store(0, Ordering::Relaxed);
        self.tasks_spawned.store(0, Ordering::Relaxed);
        self.steals_attempted.store(0, Ordering::Relaxed);
        self.steals_succeeded.store(0, Ordering::Relaxed);
        self.tasks_stolen.store(0, Ordering::Relaxed);
        self.td_waves.store(0, Ordering::Relaxed);
        self.dirty_marks_sent.store(0, Ordering::Relaxed);
        self.dirty_marks_elided.store(0, Ordering::Relaxed);
        self.splits_released.store(0, Ordering::Relaxed);
        self.splits_reclaimed.store(0, Ordering::Relaxed);
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
        c.tasks_executed.fetch_add(3, Ordering::Relaxed);
        c.steals_attempted.fetch_add(2, Ordering::Relaxed);
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
