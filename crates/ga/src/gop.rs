//! Global operations (GA's `GA_Dgop`): element-wise reductions over a
//! per-rank vector, implemented with ARMCI accumulates into a rank-0
//! scratch buffer followed by a broadcast read.

use scioto_sim::Ctx;

use crate::array::Ga;

impl Ga {
    /// Element-wise global sum: every rank passes `vals` (same length on
    /// all ranks) and receives the rank-wise sum.
    pub fn gop_sum_f64(&self, ctx: &Ctx, vals: &[f64]) -> Vec<f64> {
        let len = vals.len();
        let scratch = self.armci.malloc(ctx, (len.max(1)) * 8);
        self.armci.acc_f64(ctx, scratch, 0, 0, 1.0, vals);
        self.armci.barrier(ctx);
        let out = self.armci.get_f64s(ctx, scratch, 0, 0, len);
        self.armci.barrier(ctx);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{Machine, MachineConfig};

    #[test]
    fn gop_sum_adds_all_ranks() {
        let out = Machine::run(MachineConfig::virtual_time(5), |ctx| {
            let ga = Ga::init(ctx);
            ga.gop_sum_f64(ctx, &[ctx.rank() as f64, 1.0])
        });
        for v in out.results {
            assert_eq!(v, vec![10.0, 5.0]);
        }
    }

    #[test]
    fn gop_sum_empty_vector() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let ga = Ga::init(ctx);
            ga.gop_sum_f64(ctx, &[])
        });
        for v in out.results {
            assert!(v.is_empty());
        }
    }
}
