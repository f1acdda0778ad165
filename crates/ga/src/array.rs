//! The `Ga` world object and 2-D distributed arrays.

use std::sync::Arc;

use scioto_det::AppendTable;

use scioto_armci::{Armci, Gmem, Strided};
use scioto_sim::{Ctx, RemoteOpKind};

use crate::dist::{BlockDist, Patch};

/// Portable integer handle to a global array — exactly what GA programs
/// store inside Scioto task bodies (Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaHandle(pub i64);

pub(crate) struct ArrayMeta {
    pub(crate) name: String,
    pub(crate) dist: BlockDist,
    pub(crate) gmem: Gmem,
}

/// The Global Arrays runtime for one machine.
pub struct Ga {
    pub(crate) armci: Arc<Armci>,
    pub(crate) arrays: AppendTable<ArrayMeta>,
}

impl Ga {
    /// Collectively initialize Global Arrays (initializes ARMCI
    /// internally, like `GA_Initialize`).
    pub fn init(ctx: &Ctx) -> Arc<Ga> {
        let armci = Armci::init(ctx);
        ctx.collective(|| Ga {
            armci,
            arrays: AppendTable::new(),
        })
    }

    /// The underlying ARMCI world.
    pub fn armci(&self) -> &Arc<Armci> {
        &self.armci
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.armci.nranks()
    }

    /// Collectively create a `rows × cols` f64 array, zero-initialized.
    pub fn create(&self, ctx: &Ctx, name: &str, rows: usize, cols: usize) -> GaHandle {
        let n = self.nranks();
        let dist = BlockDist::new(rows, cols, n);
        let gmem = self.armci.malloc(ctx, dist.max_owned() * 8);
        let handle = ctx.collective(|| {
            GaHandle(self.arrays.push(ArrayMeta {
                name: name.to_string(),
                dist,
                gmem,
            }) as i64)
        });
        *handle
    }

    pub(crate) fn meta(&self, h: GaHandle) -> &ArrayMeta {
        self.arrays
            .get(h.0 as usize)
            .unwrap_or_else(|| panic!("invalid GA handle {}", h.0))
    }

    /// Name the array was created with.
    pub fn name(&self, h: GaHandle) -> String {
        self.meta(h).name.clone()
    }

    /// Rank owning element `(i, j)` (GA's `NGA_Locate`).
    pub fn locate(&self, h: GaHandle, i: usize, j: usize) -> usize {
        self.meta(h).dist.locate(i, j)
    }

    /// Patch owned by `rank` (GA's `NGA_Distribution`).
    pub fn distribution(&self, h: GaHandle, rank: usize) -> Patch {
        self.meta(h).dist.owned(rank)
    }

    /// Block distribution descriptor.
    pub fn dist(&self, h: GaHandle) -> BlockDist {
        self.meta(h).dist
    }

    /// Synchronize: completes outstanding operations on all ranks
    /// (GA_Sync = fence + barrier).
    pub fn sync(&self, ctx: &Ctx) {
        self.armci.barrier(ctx);
    }

    /// The one loop under `get` / `put` / `acc`: one strided ARMCI access
    /// per owner of `p`, each row of the owner's share addressed in place
    /// in its row-major local storage. `word(k, bits)` is handed element
    /// `k` of the caller's row-major `p`-shaped buffer together with the
    /// owner's word for it (an `f64`'s bits); `kind` says what it does
    /// with them.
    fn patch_op(
        &self,
        ctx: &Ctx,
        h: GaHandle,
        p: Patch,
        kind: RemoteOpKind,
        mut word: impl FnMut(usize, &mut u64),
    ) {
        let meta = self.meta(h);
        self.check_patch(&meta.dist, p);
        for (rank, inter) in meta.dist.owners(p) {
            let owned = meta.dist.owned(rank);
            let s = Strided {
                offset: ((inter.rlo - owned.rlo) * owned.cols() + (inter.clo - owned.clo)) * 8,
                stride: owned.cols() * 8,
                seg_len: inter.cols() * 8,
                count: inter.rows(),
            };
            // Where row 0 of the intersection starts in the caller's buffer.
            let base = (inter.rlo - p.rlo) * p.cols() + (inter.clo - p.clo);
            // Captured by value, so the per-word closure keeps them in
            // registers across the store's atomic word moves.
            let (cols, word) = (p.cols(), &mut word);
            self.armci.access_strided(ctx, meta.gmem, rank, s, kind, move |row, col, w| {
                word(base + row * cols + col, w);
            });
        }
    }

    /// Get a rectangular patch as a row-major `Vec<f64>`.
    pub fn get(&self, ctx: &Ctx, h: GaHandle, p: Patch) -> Vec<f64> {
        let mut out = vec![0.0f64; p.size()];
        self.patch_op(ctx, h, p, RemoteOpKind::Get, |k, w| out[k] = f64::from_bits(*w));
        out
    }

    /// Put a row-major patch (`data.len() == p.size()`).
    pub fn put(&self, ctx: &Ctx, h: GaHandle, p: Patch, data: &[f64]) {
        assert_eq!(data.len(), p.size(), "patch data length mismatch");
        self.patch_op(ctx, h, p, RemoteOpKind::Put, move |k, w| *w = data[k].to_bits());
    }

    /// Atomic accumulate: `A[p] += alpha * data` (GA's `NGA_Acc`).
    pub fn acc(&self, ctx: &Ctx, h: GaHandle, p: Patch, alpha: f64, data: &[f64]) {
        assert_eq!(data.len(), p.size(), "patch data length mismatch");
        self.patch_op(ctx, h, p, RemoteOpKind::Acc, move |k, w| {
            *w = (f64::from_bits(*w) + alpha * data[k]).to_bits();
        });
    }

    /// Collectively fill the whole array with `v` (each rank fills its own
    /// patch; callers should `sync` before depending on the result).
    pub fn fill(&self, ctx: &Ctx, h: GaHandle, v: f64) {
        let meta = self.meta(h);
        let mine = meta.dist.owned(ctx.rank());
        if mine.is_empty() {
            return;
        }
        self.armci.local(ctx, meta.gmem).fill(0, mine.size(), v.to_bits());
        ctx.compute((mine.size() as u64).max(1));
    }

    /// Collectively zero the array.
    pub fn zero(&self, ctx: &Ctx, h: GaHandle) {
        self.fill(ctx, h, 0.0);
    }

    fn check_patch(&self, d: &BlockDist, p: Patch) {
        assert!(
            p.rhi <= d.rows && p.chi <= d.cols,
            "patch {p:?} out of bounds for {}x{} array",
            d.rows,
            d.cols
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{Machine, MachineConfig};

    #[test]
    fn put_then_get_roundtrips_across_distribution() {
        for n in [1, 2, 4, 6] {
            let out = Machine::run(MachineConfig::virtual_time(n), |ctx| {
                let ga = Ga::init(ctx);
                let a = ga.create(ctx, "a", 9, 7);
                if ctx.rank() == 0 {
                    let data: Vec<f64> = (0..63).map(|x| x as f64).collect();
                    ga.put(ctx, a, Patch::new(0, 9, 0, 7), &data);
                }
                ga.sync(ctx);
                ga.get(ctx, a, Patch::new(2, 6, 1, 5))
            });
            // Rows 2..6, cols 1..5 of the row-major 9x7 matrix.
            let expect: Vec<f64> = (2..6)
                .flat_map(|i| (1..5).map(move |j| (i * 7 + j) as f64))
                .collect();
            for r in out.results {
                assert_eq!(r, expect, "n={n}");
            }
        }
    }

    #[test]
    fn acc_sums_contributions_from_all_ranks() {
        let out = Machine::run(MachineConfig::virtual_time(4), |ctx| {
            let ga = Ga::init(ctx);
            let a = ga.create(ctx, "acc", 6, 6);
            ga.zero(ctx, a);
            ga.sync(ctx);
            let p = Patch::new(1, 4, 1, 4);
            ga.acc(ctx, a, p, 2.0, &vec![1.0; p.size()]);
            ga.sync(ctx);
            ga.get(ctx, a, Patch::new(0, 6, 0, 6))
        });
        for r in out.results {
            for i in 0..6 {
                for j in 0..6 {
                    let inside = (1..4).contains(&i) && (1..4).contains(&j);
                    let expect = if inside { 8.0 } else { 0.0 };
                    assert_eq!(r[i * 6 + j], expect, "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn locate_and_distribution_agree() {
        let out = Machine::run(MachineConfig::virtual_time(6), |ctx| {
            let ga = Ga::init(ctx);
            let a = ga.create(ctx, "loc", 12, 10);
            let mut ok = true;
            for i in 0..12 {
                for j in 0..10 {
                    let owner = ga.locate(a, i, j);
                    ok &= ga.distribution(a, owner).contains(i, j);
                }
            }
            ok
        });
        assert!(out.results.into_iter().all(|b| b));
    }

    #[test]
    fn multiple_arrays_are_independent() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let ga = Ga::init(ctx);
            let a = ga.create(ctx, "a", 4, 4);
            let b = ga.create(ctx, "b", 4, 4);
            ga.fill(ctx, a, 1.0);
            ga.fill(ctx, b, 2.0);
            ga.sync(ctx);
            let pa = ga.get(ctx, a, Patch::new(0, 4, 0, 4));
            let pb = ga.get(ctx, b, Patch::new(0, 4, 0, 4));
            (pa.iter().sum::<f64>(), pb.iter().sum::<f64>())
        });
        for (sa, sb) in out.results {
            assert_eq!(sa, 16.0);
            assert_eq!(sb, 32.0);
        }
    }

    #[test]
    fn handles_are_portable_integers() {
        let out = Machine::run(MachineConfig::virtual_time(3), |ctx| {
            let ga = Ga::init(ctx);
            let a = ga.create(ctx, "x", 2, 2);
            a.0
        });
        assert!(out.results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_patch_panics() {
        Machine::run(MachineConfig::virtual_time(1), |ctx| {
            let ga = Ga::init(ctx);
            let a = ga.create(ctx, "a", 4, 4);
            ga.get(ctx, a, Patch::new(0, 5, 0, 4));
        });
    }
}
