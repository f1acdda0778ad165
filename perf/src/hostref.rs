//! The host-speed reference: a fixed piece of arithmetic, owned by the
//! benchmark, timed beside every rep and every set-up.
//!
//! This sandbox is a few cores of a shared host, and for spells of ten
//! seconds to a minute everything on it runs 15–25 % slower — a plain
//! arithmetic loop as much as the program (README, "Host speed"). A spell
//! outlasts a run, so no statistic over the run's reps can see past it.
//! The end-to-end host times are therefore stated for a host of
//! *reference speed*: each timed interval is scaled by how long this
//! kernel took just before and just after it, against [`NOMINAL_MS`]. The
//! raw wall times stay in the `BENCH_*.json` file.
//!
//! The kernel uses none of the repo's code and touches no memory, so no
//! change to the program can move it; a change that claims a gain may not
//! edit the benchmark.

use scioto_det::MonoClock;

/// What one pass of the kernel takes on this host when it is quiet. A
/// scale only: it makes the reference-speed figures equal the raw ones on
/// a quiet host, and cancels out of any comparison between two commits.
pub const NOMINAL_MS: f64 = 33.0;

/// Rounds of four independent multiply–xorshift lanes: enough
/// instruction-level parallelism to keep the core's integer units busy,
/// the way the program's hashing and queue code do.
const ROUNDS: u64 = 16_000_000;

/// The kernel and what its latest pass took.
pub struct HostRef {
    last_ms: f64,
}

impl Default for HostRef {
    fn default() -> Self {
        Self::new()
    }
}

impl HostRef {
    /// A reference whose first interval starts now.
    pub fn new() -> Self {
        let mut r = HostRef { last_ms: 0.0 };
        r.sample_ms();
        r
    }

    /// Time one pass of the kernel, in ms.
    pub fn sample_ms(&mut self) -> f64 {
        let clock = MonoClock::new();
        let mut lanes = [
            0x9E37_79B9_7F4A_7C15u64,
            0xBF58_476D_1CE4_E5B9,
            0x94D0_49BB_1331_11EB,
            0xD6E8_FEB8_6659_FD93,
        ];
        for i in 0..ROUNDS {
            for x in &mut lanes {
                *x = (*x ^ (*x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ i;
            }
        }
        std::hint::black_box(lanes);
        self.last_ms = clock.now_ns() as f64 / 1e6;
        self.last_ms
    }

    /// Close the interval that began at the previous pass with a new
    /// pass: how much slower than the reference host this one ran during
    /// it (1.0 on a quiet host), from the mean of the two passes.
    pub fn lap(&mut self) -> f64 {
        let before = self.last_ms;
        (before + self.sample_ms()) / 2.0 / NOMINAL_MS
    }

    /// Median of three passes: the steadier figure reported as
    /// `bench.calib_ms`.
    pub fn steady_ms(&mut self) -> f64 {
        let mut s = [self.sample_ms(), self.sample_ms(), self.sample_ms()];
        s.sort_by(f64::total_cmp);
        s[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lap_is_the_mean_of_its_two_passes_over_nominal() {
        let mut r = HostRef::new();
        let before = r.last_ms;
        let lap = r.lap();
        assert!(before > 0.0 && r.last_ms > 0.0);
        assert_eq!(lap, (before + r.last_ms) / 2.0 / NOMINAL_MS);
    }
}
