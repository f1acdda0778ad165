//! `read_inc` shared counters (GA's `NGA_Read_inc`).
//!
//! The original SCF and TCE implementations replicate the task list on
//! every process and draw the next task index by atomically incrementing a
//! shared counter — the locality-oblivious dynamic load balancer that
//! Figures 5 and 6 of the paper compare Scioto against. Every increment is
//! a remote RMW on the counter's host rank, which is exactly the
//! serialization bottleneck the paper attributes the original codes'
//! scaling collapse to.

use scioto_armci::Gmem;
use scioto_sim::Ctx;

use crate::array::Ga;

/// Which load-balancing scheme drives an application's task loop (SCF's
/// Fock build, TCE's contraction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBalance {
    /// Replicated task list + a shared [`Ga::read_inc`] counter (the
    /// original implementation the paper compares against).
    GlobalCounter,
    /// Scioto task collection, tasks seeded at their data's owner, with
    /// locality-aware work stealing.
    Scioto,
}

/// Handle to a shared counter hosted on one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaCounter {
    gmem: Gmem,
    host: usize,
}

impl Ga {
    /// Collectively create a shared counter initialized to zero, hosted on
    /// `host`.
    pub fn create_counter(&self, ctx: &Ctx, host: usize) -> GaCounter {
        assert!(host < self.nranks(), "host rank out of range");
        let gmem = self.armci.malloc(ctx, 8);
        GaCounter { gmem, host }
    }

    /// Atomically add `inc` to the counter and return its previous value.
    pub fn read_inc(&self, ctx: &Ctx, c: GaCounter, inc: i64) -> i64 {
        self.armci.fetch_add_i64(ctx, c.gmem, c.host, 0, inc)
    }

    /// Collectively reset the counter to zero. Requires a `sync` by the
    /// caller before reuse.
    pub fn reset_counter(&self, ctx: &Ctx, c: GaCounter) {
        if ctx.rank() == c.host {
            self.armci.write_i64(ctx, c.gmem, c.host, 0, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{Machine, MachineConfig};

    #[test]
    fn read_inc_hands_out_unique_indices() {
        let out = Machine::run(MachineConfig::virtual_time(6), |ctx| {
            let ga = Ga::init(ctx);
            let c = ga.create_counter(ctx, 0);
            ga.sync(ctx);
            let mut mine = Vec::new();
            loop {
                let i = ga.read_inc(ctx, c, 1);
                if i >= 100 {
                    break;
                }
                mine.push(i);
            }
            mine
        });
        let mut all: Vec<i64> = out.results.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<i64>>());
    }

    #[test]
    fn reset_counter_restarts_numbering() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let ga = Ga::init(ctx);
            let c = ga.create_counter(ctx, 1);
            ga.sync(ctx);
            ga.read_inc(ctx, c, 1);
            ga.sync(ctx);
            ga.reset_counter(ctx, c);
            ga.sync(ctx);
            ga.read_inc(ctx, c, 5)
        });
        // After reset, the two ranks draw 0 and 5 in some order.
        let mut r = out.results;
        r.sort_unstable();
        assert_eq!(r, vec![0, 5]);
    }

    #[test]
    fn counter_serializes_in_virtual_time() {
        // With cluster latencies, 64 increments from 8 ranks must take at
        // least 64 serialized remote RMW times on the critical path... but
        // one-sided RMWs pipeline per-rank; what must hold is that every
        // index is unique and the host's memory saw all updates.
        let out = Machine::run(
            MachineConfig::virtual_time(8).with_latency(scioto_sim::LatencyModel::cluster()),
            |ctx| {
                let ga = Ga::init(ctx);
                let c = ga.create_counter(ctx, 0);
                ga.sync(ctx);
                let v: Vec<i64> = (0..8).map(|_| ga.read_inc(ctx, c, 1)).collect();
                ga.sync(ctx);
                v
            },
        );
        let mut all: Vec<i64> = out.results.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<i64>>());
    }
}
