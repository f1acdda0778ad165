//! Rectangular patches and the 2-D block distribution.

/// A half-open rectangular region `[rlo, rhi) × [clo, chi)` of a 2-D array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Patch {
    /// First row (inclusive).
    pub rlo: usize,
    /// Last row (exclusive).
    pub rhi: usize,
    /// First column (inclusive).
    pub clo: usize,
    /// Last column (exclusive).
    pub chi: usize,
}

impl Patch {
    /// Construct `[rlo, rhi) × [clo, chi)`.
    pub fn new(rlo: usize, rhi: usize, clo: usize, chi: usize) -> Self {
        assert!(rlo <= rhi && clo <= chi, "malformed patch");
        Patch { rlo, rhi, clo, chi }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rhi - self.rlo
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.chi - self.clo
    }

    /// Number of elements.
    pub fn size(&self) -> usize {
        self.rows() * self.cols()
    }

    /// True when the patch covers no elements.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// Intersection with `other` (possibly empty).
    pub fn intersect(&self, other: &Patch) -> Patch {
        let rlo = self.rlo.max(other.rlo);
        let rhi = self.rhi.min(other.rhi).max(rlo);
        let clo = self.clo.max(other.clo);
        let chi = self.chi.min(other.chi).max(clo);
        Patch { rlo, rhi, clo, chi }
    }

    /// True when `(i, j)` lies within the patch.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        i >= self.rlo && i < self.rhi && j >= self.clo && j < self.chi
    }
}

/// A 2-D block distribution of a `rows × cols` array over `n` ranks
/// arranged in a `pr × pc` process grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDist {
    /// Global rows.
    pub rows: usize,
    /// Global columns.
    pub cols: usize,
    /// Process-grid rows.
    pub pr: usize,
    /// Process-grid columns.
    pub pc: usize,
    /// Rows per grid row (block height).
    pub br: usize,
    /// Columns per grid column (block width).
    pub bc: usize,
}

impl BlockDist {
    /// Build the near-square process grid for `n` ranks and block the
    /// array over it.
    pub fn new(rows: usize, cols: usize, n: usize) -> Self {
        assert!(n >= 1);
        let (pr, pc) = process_grid(n);
        BlockDist {
            rows,
            cols,
            pr,
            pc,
            br: rows.div_ceil(pr).max(1),
            bc: cols.div_ceil(pc).max(1),
        }
    }

    /// Rank owning element `(i, j)`.
    pub fn locate(&self, i: usize, j: usize) -> usize {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        let gr = (i / self.br).min(self.pr - 1);
        let gc = (j / self.bc).min(self.pc - 1);
        gr * self.pc + gc
    }

    /// The patch owned by `rank` (possibly empty).
    pub fn owned(&self, rank: usize) -> Patch {
        let gr = rank / self.pc;
        let gc = rank % self.pc;
        if gr >= self.pr {
            return Patch::new(0, 0, 0, 0);
        }
        let rlo = (gr * self.br).min(self.rows);
        let rhi = ((gr + 1) * self.br).min(self.rows);
        let clo = (gc * self.bc).min(self.cols);
        let chi = ((gc + 1) * self.bc).min(self.cols);
        Patch::new(rlo, rhi.max(rlo), clo, chi.max(clo))
    }

    /// Maximum number of elements owned by any rank.
    pub fn max_owned(&self) -> usize {
        self.br * self.bc
    }

    /// Ranks whose owned patches intersect `p`, in ascending order, with
    /// the non-empty intersections. Visits only the process-grid rows and
    /// columns `p` spans; allocates nothing.
    pub fn owners(&self, p: Patch) -> impl Iterator<Item = (usize, Patch)> {
        // Grid row `g` holds rows `[g·br, (g+1)·br)`, so the rows of `p`,
        // clipped to the array, fall in grid rows `rlo / br ..= (rhi - 1) /
        // br`, each of which owns some of them (`pr · br ≥ rows`); likewise
        // columns.
        let d = *self;
        let p = p.intersect(&Patch::new(0, d.rows, 0, d.cols));
        let (grs, gcs) = if p.is_empty() {
            (0..0, 0..0)
        } else {
            (
                p.rlo / d.br..(p.rhi - 1) / d.br + 1,
                p.clo / d.bc..(p.chi - 1) / d.bc + 1,
            )
        };
        // One flat range over the spanned cells, row-major: ascending ranks.
        let cols = gcs.len();
        (0..grs.len() * cols).map(move |k| {
            let rank = (grs.start + k / cols) * d.pc + gcs.start + k % cols;
            (rank, d.owned(rank).intersect(&p))
        })
    }
}

/// Near-square factorization `pr × pc = n` with `pr <= pc`.
pub(crate) fn process_grid(n: usize) -> (usize, usize) {
    let mut pr = (n as f64).sqrt() as usize;
    while pr > 1 && !n.is_multiple_of(pr) {
        pr -= 1;
    }
    (pr.max(1), n / pr.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_near_square() {
        assert_eq!(process_grid(1), (1, 1));
        assert_eq!(process_grid(4), (2, 2));
        assert_eq!(process_grid(6), (2, 3));
        assert_eq!(process_grid(12), (3, 4));
        assert_eq!(process_grid(64), (8, 8));
        assert_eq!(process_grid(7), (1, 7));
    }

    #[test]
    fn every_element_has_exactly_one_owner() {
        for n in [1, 2, 3, 4, 6, 8, 16] {
            let d = BlockDist::new(10, 13, n);
            for i in 0..10 {
                for j in 0..13 {
                    let owner = d.locate(i, j);
                    assert!(owner < n);
                    assert!(d.owned(owner).contains(i, j), "n={n} ({i},{j})");
                    // No other rank owns it.
                    for r in 0..n {
                        if r != owner {
                            assert!(!d.owned(r).contains(i, j));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn owners_cover_patch_exactly() {
        let d = BlockDist::new(16, 16, 4);
        let p = Patch::new(3, 12, 5, 14);
        let covered: usize = d.owners(p).map(|(_, q)| q.size()).sum();
        assert_eq!(covered, p.size());
    }

    /// `owners` as it stood before the grid walk: every rank's share
    /// intersected with `p`. The oracle of the test below.
    fn owners_by_scan(d: &BlockDist, p: Patch, n: usize) -> Vec<(usize, Patch)> {
        (0..n)
            .map(|rank| (rank, d.owned(rank).intersect(&p)))
            .filter(|(_, inter)| !inter.is_empty())
            .collect()
    }

    #[test]
    fn owners_match_the_rank_scan() {
        let mut rng = scioto_det::Rng::seed_from_u64(27);
        let mut below = |n: usize| rng.gen_below(n as u64) as usize;
        let (mut empty_shares, mut empty_patches) = (0, 0);
        for n in 1..=17 {
            // Tiny arrays on many ranks leave some ranks an empty share.
            for (rows, cols) in [(1, 1), (2, 3), (3, 2), (5, 5), (10, 13), (16, 16), (33, 7)] {
                let d = BlockDist::new(rows, cols, n);
                empty_shares += (0..n).filter(|&r| d.owned(r).is_empty()).count();
                // Some patches reach past the array; the scan clips them.
                for _ in 0..60 {
                    let (r0, r1) = (below(2 * rows + 2), below(2 * rows + 2));
                    let (c0, c1) = (below(2 * cols + 2), below(2 * cols + 2));
                    let p = Patch::new(r0.min(r1), r0.max(r1), c0.min(c1), c0.max(c1));
                    empty_patches += usize::from(p.is_empty());
                    let got: Vec<_> = d.owners(p).collect();
                    assert_eq!(got, owners_by_scan(&d, p, n), "{rows}x{cols} on {n}: {p:?}");
                }
                let whole = Patch::new(0, rows, 0, cols);
                assert_eq!(
                    d.owners(whole).collect::<Vec<_>>(),
                    owners_by_scan(&d, whole, n)
                );
            }
        }
        assert!(
            empty_shares > 100 && empty_patches > 100,
            "{empty_shares} {empty_patches}"
        );
    }

    #[test]
    fn intersect_clamps_to_empty() {
        let a = Patch::new(0, 4, 0, 4);
        let b = Patch::new(6, 8, 6, 8);
        assert!(a.intersect(&b).is_empty());
    }

    #[test]
    fn patch_accessors() {
        let p = Patch::new(2, 5, 1, 7);
        assert_eq!(p.rows(), 3);
        assert_eq!(p.cols(), 6);
        assert_eq!(p.size(), 18);
        assert!(p.contains(2, 1));
        assert!(!p.contains(5, 1));
    }

    #[test]
    fn tiny_arrays_on_many_ranks() {
        // More ranks than elements: distribution must stay consistent.
        let d = BlockDist::new(2, 2, 16);
        let mut owners = std::collections::HashSet::new();
        for i in 0..2 {
            for j in 0..2 {
                owners.insert(d.locate(i, j));
            }
        }
        assert!(!owners.is_empty());
        let covered: usize = (0..16).map(|r| d.owned(r).size()).sum();
        assert_eq!(covered, 4);
    }
}
