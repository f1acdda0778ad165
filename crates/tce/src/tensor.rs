//! Block-sparse tiled matrices over Global Arrays.

use scioto_det::Rng;

use scioto_ga::{Ga, GaHandle, Patch};
use scioto_sim::Ctx;

/// How a tensor's block mask is generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityPattern {
    /// Fraction of blocks kept by the random component.
    pub density: f64,
    /// RNG seed (the mask must be identical on every rank).
    pub seed: u64,
    /// Structured component: drop blocks with `(r + c) % symmetry == 0`
    /// (a stand-in for spin/spatial symmetry zeros). 0 disables it.
    pub symmetry: u64,
}

impl SparsityPattern {
    /// A moderately sparse pattern.
    pub fn standard(seed: u64) -> Self {
        SparsityPattern {
            density: 0.4,
            seed,
            symmetry: 3,
        }
    }
}

/// A block-sparse matrix: `nbr × nbc` tiles of size `bs × bs`, with a
/// presence mask, backed by a dense GA array (absent tiles hold zeros and
/// are never touched).
pub struct BlockSparse {
    /// Tile rows.
    pub nbr: usize,
    /// Tile columns.
    pub nbc: usize,
    /// Tile edge length.
    pub bs: usize,
    /// `mask[r * nbc + c]` — is tile `(r, c)` present?
    pub mask: Vec<bool>,
    /// Backing distributed array of shape `(nbr·bs) × (nbc·bs)`.
    pub handle: GaHandle,
}

impl BlockSparse {
    /// Deterministic mask for the given shape and pattern.
    pub fn make_mask(nbr: usize, nbc: usize, p: &SparsityPattern) -> Vec<bool> {
        let mut rng = Rng::seed_from_u64(p.seed);
        (0..nbr * nbc)
            .map(|idx| {
                let (r, c) = (idx / nbc, idx % nbc);
                let sym_ok = p.symmetry == 0 || !((r + c) as u64).is_multiple_of(p.symmetry);
                // Draw for every tile so the mask does not depend on
                // iteration order shortcuts.
                let keep = rng.gen_f64() < p.density;
                sym_ok && keep
            })
            .collect()
    }

    /// Collectively create the tensor and fill present tiles with
    /// deterministic pseudo-random values (absent tiles stay zero).
    pub fn create(
        ctx: &Ctx,
        ga: &Ga,
        name: &str,
        nbr: usize,
        nbc: usize,
        bs: usize,
        pattern: &SparsityPattern,
    ) -> BlockSparse {
        let mask = Self::make_mask(nbr, nbc, pattern);
        let handle = ga.create(ctx, name, nbr * bs, nbc * bs);
        let t = BlockSparse {
            nbr,
            nbc,
            bs,
            mask,
            handle,
        };
        // Rank 0 fills the data (bulk initialization; the interesting
        // communication is in the contraction, not the fill).
        if ctx.rank() == 0 {
            let mut rng = Rng::seed_from_u64(pattern.seed ^ 0xDA7A);
            for r in 0..nbr {
                for c in 0..nbc {
                    if !t.present(r, c) {
                        continue;
                    }
                    let tile: Vec<f64> =
                        (0..bs * bs).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    ga.put(ctx, handle, t.tile_patch(r, c), &tile);
                }
            }
        }
        ga.sync(ctx);
        t
    }

    /// Collectively create an all-zero tensor with a full mask (used for
    /// contraction outputs).
    pub fn create_dense_zero(
        ctx: &Ctx,
        ga: &Ga,
        name: &str,
        nbr: usize,
        nbc: usize,
        bs: usize,
    ) -> BlockSparse {
        let handle = ga.create(ctx, name, nbr * bs, nbc * bs);
        BlockSparse {
            nbr,
            nbc,
            bs,
            mask: vec![true; nbr * nbc],
            handle,
        }
    }

    /// Is tile `(r, c)` present?
    pub fn present(&self, r: usize, c: usize) -> bool {
        self.mask[r * self.nbc + c]
    }

    /// The patch covered by tile `(r, c)`.
    pub fn tile_patch(&self, r: usize, c: usize) -> Patch {
        Patch::new(
            r * self.bs,
            (r + 1) * self.bs,
            c * self.bs,
            (c + 1) * self.bs,
        )
    }

    /// Fetch tile `(r, c)` as a dense row-major `bs × bs` buffer.
    pub fn get_tile(&self, ctx: &Ctx, ga: &Ga, r: usize, c: usize) -> Vec<f64> {
        ga.get(ctx, self.handle, self.tile_patch(r, c))
    }

    /// Fetch the whole matrix densely (tests / reference computations).
    pub fn to_dense(&self, ctx: &Ctx, ga: &Ga) -> Vec<f64> {
        ga.get(
            ctx,
            self.handle,
            Patch::new(0, self.nbr * self.bs, 0, self.nbc * self.bs),
        )
    }
}

/// Dense row-major reference matmul: `C += A · B` with dimensions
/// `(m × k) · (k × n)`.
pub fn dense_matmul_acc(c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            for j in 0..n {
                c[i * n + j] += aip * b[p * n + j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scioto_sim::{Machine, MachineConfig};

    #[test]
    fn mask_is_deterministic_and_respects_symmetry() {
        let p = SparsityPattern {
            density: 1.0,
            seed: 5,
            symmetry: 2,
        };
        let a = BlockSparse::make_mask(4, 4, &p);
        let b = BlockSparse::make_mask(4, 4, &p);
        assert_eq!(a, b);
        for r in 0..4 {
            for c in 0..4 {
                if (r + c) % 2 == 0 {
                    assert!(!a[r * 4 + c], "symmetry zero at ({r},{c}) kept");
                }
            }
        }
    }

    #[test]
    fn density_controls_fill() {
        let dense = BlockSparse::make_mask(
            30,
            30,
            &SparsityPattern {
                density: 0.9,
                seed: 1,
                symmetry: 0,
            },
        );
        let sparse = BlockSparse::make_mask(
            30,
            30,
            &SparsityPattern {
                density: 0.1,
                seed: 1,
                symmetry: 0,
            },
        );
        let cd = dense.iter().filter(|&&m| m).count();
        let cs = sparse.iter().filter(|&&m| m).count();
        assert!(cd > 700 && cs < 150, "dense={cd} sparse={cs}");
    }

    #[test]
    fn absent_tiles_are_zero_present_tiles_are_not() {
        let out = Machine::run(MachineConfig::virtual_time(2), |ctx| {
            let ga = Ga::init(ctx);
            let t = BlockSparse::create(
                ctx,
                &ga,
                "t",
                3,
                3,
                4,
                &SparsityPattern {
                    density: 0.6,
                    seed: 9,
                    symmetry: 3,
                },
            );
            let mut ok = true;
            for r in 0..3 {
                for c in 0..3 {
                    let tile = t.get_tile(ctx, &ga, r, c);
                    let sum: f64 = tile.iter().map(|v| v.abs()).sum();
                    if t.present(r, c) {
                        ok &= sum > 0.0;
                    } else {
                        ok &= sum == 0.0;
                    }
                }
            }
            ok
        });
        assert!(out.results.into_iter().all(|b| b));
    }

    #[test]
    fn dense_matmul_reference() {
        // 2x2: [[1,2],[3,4]] · [[5,6],[7,8]] = [[19,22],[43,50]].
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        dense_matmul_acc(&mut c, &a, &b, 2, 2, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }
}
