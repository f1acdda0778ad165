//! The per-run ERI block store.
//!
//! `(ij|kl)` depends on the basis alone, yet a Fock build reads every
//! screened-in value twice per iteration (the Coulomb term of one task is
//! the exchange term of another) and every iteration re-reads the lot. The
//! store holds each block of the tensor once per run: block
//! `(ba,bb|bc,bd)` is filled on first touch and never changes, and every
//! element is exactly [`PairTable::eri`], so a reader sees the bits it
//! would have computed. All blocks together are `n⁴ · 8` bytes (8 MB at
//! the default 32 functions); only those some task survives screening for,
//! and their canonical blocks, are ever filled.
//!
//! The tensor is 8-fold symmetric, `(ab|cd) = (ba|cd) = (cd|ab) = …`, and
//! [`PairTable::eri`] is so bit for bit. Integrals are therefore evaluated
//! only for a *canonical* block: `ba ≥ bb`, `bc ≥ bd` and
//! `(ba,bb) ≥ (bc,bd)`, about one block in eight. The first touch of any
//! other orientation fills its canonical block if that is still empty,
//! then copies it with the four indices permuted — no integral, one pass
//! over the block, and storage of its own, so a non-canonical touch holds
//! two blocks.
//!
//! This is host bookkeeping, shared across ranks through
//! `Ctx::replicated`. The modelled machine still pays `ERI_COST_NS` per
//! integral it reads.

use std::sync::OnceLock;

use crate::integrals::PairTable;

/// Lazily filled `nb⁴` blocks of the ERI tensor; see the module docs.
#[derive(Debug)]
pub(crate) struct EriStore {
    table: PairTable,
    block: usize,
    nb: usize,
    blocks: Vec<OnceLock<Box<[f64]>>>,
    /// Integrals evaluated so far.
    #[cfg(test)]
    evaluated: std::sync::atomic::AtomicUsize,
}

/// The canonical orientation of block quartet `q` — each pair descending,
/// the larger pair first — and, for each of its positions, the position
/// of `q` that block came from.
fn canonical(q: [u32; 4]) -> ([u32; 4], [usize; 4]) {
    let mut from = [0, 1, 2, 3];
    if q[0] < q[1] {
        from.swap(0, 1);
    }
    if q[2] < q[3] {
        from.swap(2, 3);
    }
    if (q[from[0]], q[from[1]]) < (q[from[2]], q[from[3]]) {
        from = [from[2], from[3], from[0], from[1]];
    }
    (from.map(|i| q[i]), from)
}

impl EriStore {
    pub(crate) fn new(table: PairTable, block: usize) -> EriStore {
        let nb = table.n().div_ceil(block);
        EriStore {
            table,
            block,
            nb,
            blocks: (0..nb.pow(4)).map(|_| OnceLock::new()).collect(),
            #[cfg(test)]
            evaluated: Default::default(),
        }
    }

    /// Number of blocks along one index.
    pub(crate) fn nb(&self) -> usize {
        self.nb
    }

    /// The pair table the blocks are filled from.
    pub(crate) fn table(&self) -> &PairTable {
        &self.table
    }

    /// Basis-function range `[lo, hi)` of block `b`; the last block is
    /// ragged when the block size does not divide `n`.
    pub(crate) fn range(&self, b: u32) -> (usize, usize) {
        let lo = b as usize * self.block;
        (lo, (lo + self.block).min(self.table.n()))
    }

    /// Width of block `b`.
    pub(crate) fn extent(&self, b: u32) -> usize {
        let (lo, hi) = self.range(b);
        hi - lo
    }

    /// `(ab|cd)` for `a` in block `ba`, …, `d` in block `bd`, row-major
    /// over the blocks' real extents.
    pub(crate) fn block(&self, ba: u32, bb: u32, bc: u32, bd: u32) -> &[f64] {
        let nb = self.nb;
        let at = ((ba as usize * nb + bb as usize) * nb + bc as usize) * nb + bd as usize;
        self.blocks[at].get_or_init(|| {
            let q = [ba, bb, bc, bd];
            match canonical(q) {
                (canon, _) if canon == q => self.evaluate(q),
                (canon, from) => self.permute(q, canon, from),
            }
        })
    }

    /// Evaluate every integral of block `q`.
    fn evaluate(&self, q: [u32; 4]) -> Box<[f64]> {
        let [(alo, ahi), (blo, bhi), (clo, chi), (dlo, dhi)] = q.map(|b| self.range(b));
        let mut out = Vec::with_capacity((ahi - alo) * (bhi - blo) * (chi - clo) * (dhi - dlo));
        for a in alo..ahi {
            for b in blo..bhi {
                for c in clo..chi {
                    for d in dlo..dhi {
                        out.push(self.table.eri(a, b, c, d));
                    }
                }
            }
        }
        #[cfg(test)]
        self.evaluated
            .fetch_add(out.len(), std::sync::atomic::Ordering::Relaxed);
        out.into_boxed_slice()
    }

    /// Block `q` copied out of its canonical block `canon`, whose position
    /// `k` is position `from[k]` of `q`.
    fn permute(&self, q: [u32; 4], canon: [u32; 4], from: [usize; 4]) -> Box<[f64]> {
        let src = self.block(canon[0], canon[1], canon[2], canon[3]);
        let ext = q.map(|b| self.extent(b));
        // The step in `src` of each of `q`'s four indices.
        let (mut stride, mut len) = ([0; 4], 1);
        for &i in from.iter().rev() {
            stride[i] = len;
            len *= ext[i];
        }
        let mut out = Vec::with_capacity(len);
        for a in 0..ext[0] {
            for b in 0..ext[1] {
                for c in 0..ext[2] {
                    let row = a * stride[0] + b * stride[1] + c * stride[2];
                    out.extend((0..ext[3]).map(|d| src[row + d * stride[3]]));
                }
            }
        }
        out.into_boxed_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{BasisSet, Molecule};
    use std::sync::atomic::Ordering;

    fn quartet(q: u32, nb: u32) -> [u32; 4] {
        [q / nb.pow(3), q / nb.pow(2) % nb, q / nb % nb, q % nb]
    }

    fn check_every_element(basis: &BasisSet, block: usize) -> EriStore {
        let reference = PairTable::new(basis);
        let store = EriStore::new(PairTable::new(basis), block);
        let n = basis.len();
        assert_eq!(store.nb(), n.div_ceil(block));
        let nb = store.nb() as u32;
        let mut seen = 0;
        for q in 0..nb.pow(4) {
            let [ba, bb, bc, bd] = quartet(q, nb);
            let got = store.block(ba, bb, bc, bd);
            let mut it = got.iter();
            let (ra, rb) = (store.range(ba), store.range(bb));
            let (rc, rd) = (store.range(bc), store.range(bd));
            for a in ra.0..ra.1 {
                for b in rb.0..rb.1 {
                    for c in rc.0..rc.1 {
                        for d in rd.0..rd.1 {
                            let v = it.next().expect("block shorter than its extents");
                            assert_eq!(
                                v.to_bits(),
                                reference.eri(a, b, c, d).to_bits(),
                                "({a}{b}|{c}{d}) in block ({ba}{bb}|{bc}{bd})"
                            );
                            seen += 1;
                        }
                    }
                }
            }
            assert!(it.next().is_none(), "block longer than its extents");
        }
        assert_eq!(seen, n.pow(4), "the blocks tile the tensor exactly once");
        store
    }

    #[test]
    fn every_block_element_is_the_table_eri_bit_for_bit() {
        // 10 functions in blocks of 4: the last block is 2 wide.
        let basis = BasisSet::even_tempered(Molecule::h_chain(5), 2, 0.4, 3.5);
        assert_eq!(basis.len(), 10);
        check_every_element(&basis, 4);
    }

    #[test]
    fn a_block_larger_than_the_basis_is_one_ragged_block() {
        let basis = BasisSet::even_tempered(Molecule::h_chain(3), 2, 0.4, 3.5);
        check_every_element(&basis, 16);
    }

    #[test]
    fn only_the_canonical_blocks_evaluate_integrals() {
        // Extents 4, 4, 2: the pair blocks with `ba ≥ bb` hold
        // 16 + 16 + 16 + 8 + 8 + 4 = 68 pairs, so the canonical quartets
        // hold (68² + 16² + 16² + 16² + 8² + 8² + 4²) / 2 = 2 768 of the
        // 10 000 integrals.
        let basis = BasisSet::even_tempered(Molecule::h_chain(5), 2, 0.4, 3.5);
        let store = check_every_element(&basis, 4);
        let nb = store.nb() as u32;
        let canonical_elements: usize = (0..nb.pow(4))
            .map(|q| quartet(q, nb))
            .filter(|&[ba, bb, bc, bd]| ba >= bb && bc >= bd && (ba, bb) >= (bc, bd))
            .map(|q| q.map(|b| store.extent(b)).iter().product::<usize>())
            .sum();
        assert_eq!(canonical_elements, 2_768);
        assert_eq!(store.evaluated.load(Ordering::Relaxed), 2_768);
    }

    #[test]
    fn canonical_orders_each_pair_then_the_pairs() {
        assert_eq!(canonical([2, 1, 1, 0]), ([2, 1, 1, 0], [0, 1, 2, 3]));
        assert_eq!(canonical([0, 1, 1, 0]), ([1, 0, 1, 0], [1, 0, 2, 3]));
        assert_eq!(canonical([1, 1, 2, 0]), ([2, 0, 1, 1], [2, 3, 0, 1]));
        assert_eq!(canonical([0, 2, 1, 3]), ([3, 1, 2, 0], [3, 2, 1, 0]));
        // Every orientation of a quartet has the same canonical block.
        for q in 0..4u32.pow(4) {
            let [a, b, c, d] = quartet(q, 4);
            let (canon, from) = canonical([a, b, c, d]);
            assert_eq!(canonical(canon), (canon, [0, 1, 2, 3]));
            assert_eq!(from.map(|i| [a, b, c, d][i]), canon);
            for o in [[b, a, c, d], [a, b, d, c], [c, d, a, b], [d, c, b, a]] {
                assert_eq!(canonical(o).0, canon, "{o:?}");
            }
        }
    }

    #[test]
    fn untouched_blocks_stay_unallocated() {
        let basis = BasisSet::even_tempered(Molecule::h_chain(4), 2, 0.4, 3.5);
        let store = EriStore::new(PairTable::new(&basis), 4);
        let filled = |store: &EriStore| {
            let nb = store.nb() as u32;
            (0..nb.pow(4))
                .filter(|&q| store.blocks[q as usize].get().is_some())
                .map(|q| quartet(q, nb))
                .collect::<Vec<_>>()
        };
        let evaluated = |store: &EriStore| store.evaluated.load(Ordering::Relaxed);
        // A non-canonical touch: that block and its canonical block, and
        // the canonical block's integrals only.
        store.block(0, 1, 1, 0);
        assert_eq!(filled(&store), [[0, 1, 1, 0], [1, 0, 1, 0]]);
        assert_eq!(evaluated(&store), 4usize.pow(4));
        // Another orientation of the same block evaluates nothing.
        store.block(1, 0, 0, 1);
        assert_eq!(filled(&store), [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 1, 0]]);
        assert_eq!(evaluated(&store), 4usize.pow(4));
        // A canonical touch allocates only itself.
        store.block(1, 1, 0, 0);
        assert_eq!(filled(&store).len(), 4);
        assert_eq!(evaluated(&store), 2 * 4usize.pow(4));
    }
}
