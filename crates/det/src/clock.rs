//! Monotonic wall-clock source for the concurrent execution mode.
//!
//! This module is the single sanctioned `std::time` site in the runtime
//! proper: everything that needs real elapsed time (the concurrent
//! kernel's trace stamps, per-thread span measurement, makespan) goes
//! through [`MonoClock`] instead of touching `std::time::Instant`
//! directly. `clippy.toml` bans the `std::time` types; this module is the
//! runtime's one exemption (the bench JSON writer's generation stamp is
//! the only other), and `crates/bench/tests/docs_truth.rs` pins both.
//!
//! The clock is monotonic (never goes backwards) and reads as `u64`
//! nanoseconds since construction, matching the virtual-time kernel's
//! clock representation so traces from both modes share one schema.
#![allow(clippy::disallowed_types)]

use std::time::Instant;

/// A monotonic nanosecond clock anchored at construction time.
///
/// Cheap to read from many threads concurrently (`Instant::elapsed` is
/// lock-free on the platforms we target); all readers observe a common
/// epoch, so cross-thread stamp comparisons are meaningful modulo the
/// OS clock's own resolution.
#[derive(Debug)]
pub struct MonoClock {
    start: Instant,
}

impl MonoClock {
    /// Anchor a new clock at "now".
    pub fn new() -> Self {
        MonoClock { start: Instant::now() }
    }

    /// Nanoseconds elapsed since construction. Saturates at `u64::MAX`
    /// (≈584 years), and is monotone non-decreasing across calls from
    /// any thread.
    ///
    /// One monotonic read against the cached origin, converted in `u64`
    /// arithmetic — no `u128` widening on the concurrent kernel's stamp
    /// path, which calls this once per trace event.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        let d = self.start.elapsed();
        d.as_secs()
            .saturating_mul(1_000_000_000)
            .saturating_add(u64::from(d.subsec_nanos()))
    }
}

impl Default for MonoClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_across_reads() {
        let c = MonoClock::new();
        let mut prev = 0u64;
        for _ in 0..1000 {
            let now = c.now_ns();
            assert!(now >= prev, "clock went backwards: {now} < {prev}");
            prev = now;
        }
    }

    #[test]
    fn advances_past_a_real_sleep() {
        let c = MonoClock::new();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.now_ns() >= 1_000_000, "clock failed to advance");
    }

    #[test]
    fn readable_from_other_threads() {
        let c = MonoClock::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let a = c.now_ns();
                    let b = c.now_ns();
                    assert!(b >= a);
                });
            }
        });
    }
}
