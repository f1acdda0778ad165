//! The per-run ERI block store.
//!
//! `(ij|kl)` depends on the basis alone, yet a Fock build reads every
//! screened-in value twice per iteration (the Coulomb term of one task is
//! the exchange term of another) and every iteration re-reads the lot. The
//! store holds each block of the tensor once per run: block
//! `(ba,bb|bc,bd)` is filled on first touch with exactly
//! [`PairTable::eri`] and never changes, so a reader sees the bits it
//! would have computed. Only blocks some task survives screening for are
//! ever filled; all of them together are `n⁴ · 8` bytes (8 MB at the
//! default 32 functions).
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
}

impl EriStore {
    pub(crate) fn new(table: PairTable, block: usize) -> EriStore {
        let nb = table.n().div_ceil(block);
        EriStore {
            table,
            block,
            nb,
            blocks: (0..nb.pow(4)).map(|_| OnceLock::new()).collect(),
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

    /// `(ab|cd)` for `a` in block `ba`, …, `d` in block `bd`, row-major
    /// over the blocks' real extents.
    pub(crate) fn block(&self, ba: u32, bb: u32, bc: u32, bd: u32) -> &[f64] {
        let nb = self.nb;
        let at = ((ba as usize * nb + bb as usize) * nb + bc as usize) * nb + bd as usize;
        self.blocks[at].get_or_init(|| {
            let ((alo, ahi), (blo, bhi)) = (self.range(ba), self.range(bb));
            let ((clo, chi), (dlo, dhi)) = (self.range(bc), self.range(bd));
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
            out.into_boxed_slice()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{BasisSet, Molecule};

    fn check_every_element(basis: &BasisSet, block: usize) {
        let reference = PairTable::new(basis);
        let store = EriStore::new(PairTable::new(basis), block);
        let n = basis.len();
        assert_eq!(store.nb(), n.div_ceil(block));
        let nb = store.nb() as u32;
        let mut seen = 0;
        for q in 0..nb.pow(4) {
            let (ba, bb, bc, bd) = (q / nb.pow(3), q / nb.pow(2) % nb, q / nb % nb, q % nb);
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
    fn untouched_blocks_stay_unallocated() {
        let basis = BasisSet::even_tempered(Molecule::h_chain(4), 2, 0.4, 3.5);
        let store = EriStore::new(PairTable::new(&basis), 4);
        store.block(0, 1, 1, 0);
        assert_eq!(store.blocks.iter().filter(|b| b.get().is_some()).count(), 1);
    }
}
