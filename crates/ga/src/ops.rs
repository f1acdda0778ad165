//! Whole-array collective operations (GA_Copy, GA_Scale, GA_Add): each
//! rank transforms its own patch through one-sided get and put.

use scioto_sim::Ctx;

use crate::array::{Ga, GaHandle};

impl Ga {
    /// Collective copy `dst ← src` (same dimensions required).
    pub fn copy(&self, ctx: &Ctx, src: GaHandle, dst: GaHandle) {
        assert_eq!(self.dims(src), self.dims(dst), "GA copy shape mismatch");
        let mine = self.distribution(dst, ctx.rank());
        if !mine.is_empty() {
            let data = self.get(ctx, src, mine);
            self.put(ctx, dst, mine, &data);
        }
        self.sync(ctx);
    }

    /// Collective in-place scale `a ← alpha · a`.
    pub fn scale(&self, ctx: &Ctx, a: GaHandle, alpha: f64) {
        let mine = self.distribution(a, ctx.rank());
        if !mine.is_empty() {
            let mut data = self.get(ctx, a, mine);
            for v in &mut data {
                *v *= alpha;
            }
            self.put(ctx, a, mine, &data);
            ctx.compute(mine.size() as u64);
        }
        self.sync(ctx);
    }

    /// Collective element-wise add `c ← alpha·a + beta·b`.
    pub fn add(
        &self,
        ctx: &Ctx,
        alpha: f64,
        a: GaHandle,
        beta: f64,
        b: GaHandle,
        c: GaHandle,
    ) {
        assert_eq!(self.dims(a), self.dims(c), "GA add shape mismatch");
        assert_eq!(self.dims(b), self.dims(c), "GA add shape mismatch");
        let mine = self.distribution(c, ctx.rank());
        if !mine.is_empty() {
            let va = self.get(ctx, a, mine);
            let vb = self.get(ctx, b, mine);
            let vc: Vec<f64> = va
                .iter()
                .zip(vb.iter())
                .map(|(x, y)| alpha * x + beta * y)
                .collect();
            self.put(ctx, c, mine, &vc);
            ctx.compute(mine.size() as u64 * 2);
        }
        self.sync(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Patch;
    use scioto_sim::{Machine, MachineConfig};

    fn fill_index(ctx: &Ctx, ga: &Ga, h: GaHandle, rows: usize, cols: usize) {
        if ctx.rank() == 0 {
            let data: Vec<f64> = (0..rows * cols).map(|x| x as f64).collect();
            ga.put(ctx, h, Patch::new(0, rows, 0, cols), &data);
        }
        ga.sync(ctx);
    }

    #[test]
    fn copy_and_scale() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let ga = Ga::init(ctx);
            let a = ga.create(ctx, "a", 6, 5);
            let b = ga.create(ctx, "b", 6, 5);
            fill_index(ctx, &ga, a, 6, 5);
            ga.copy(ctx, a, b);
            ga.scale(ctx, b, 2.0);
            ga.get(ctx, b, Patch::new(0, 6, 0, 5))
        });
        let expect: Vec<f64> = (0..30).map(|x| 2.0 * x as f64).collect();
        for r in out.results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn add_linear_combination() {
        let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
            let ga = Ga::init(ctx);
            let a = ga.create(ctx, "a", 4, 4);
            let b = ga.create(ctx, "b", 4, 4);
            let c = ga.create(ctx, "c", 4, 4);
            ga.fill(ctx, a, 1.0);
            ga.fill(ctx, b, 10.0);
            ga.sync(ctx);
            ga.add(ctx, 2.0, a, 0.5, b, c);
            ga.get(ctx, c, Patch::new(0, 4, 0, 4))
        });
        for r in out.results {
            assert!(r.iter().all(|&v| v == 7.0));
        }
    }
}
